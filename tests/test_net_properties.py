"""Property tests for wire/store binary framing (Hypothesis).

Three guarantees are locked down here:

* the network frame codec never yields wrong data — an arbitrary payload
  round-trips exactly, and any truncation or byte flip either raises /
  resyncs or still decodes to the original bytes, never to altered ones;
* the store's v1 on-disk chunk layout is byte-identical to what it was
  before the shared :mod:`repro.binfmt` extraction (golden bytes built
  with raw ``struct`` + ``zlib``, independent of the codec under test);
* the wire fault injector, which draws each seq's decisions once, writes
  the same bytes in the same order with the same delays — and reports
  the same counters and expected repairs — as a reference that asks the
  plan one question per draw.
"""

import struct
import zlib

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.net import (  # noqa: E402
    FrameDecoder,
    FrameError,
    NetFaultPlan,
    WireFaultInjector,
    pack_frame,
    unpack_frame,
)
from repro.net import faults as net_faults  # noqa: E402
from repro.net import framing  # noqa: E402
from repro.store import format as store_format  # noqa: E402

FRAME_TYPE_ST = st.sampled_from(framing.FRAME_TYPES)
SESSION_ST = st.integers(min_value=0, max_value=2**32 - 1)
SEQ_ST = st.integers(min_value=0, max_value=2**64 - 1)
PAYLOAD_ST = st.binary(min_size=0, max_size=512)


class TestFrameCodecProperties:
    @given(
        frame_type=FRAME_TYPE_ST,
        session_id=SESSION_ST,
        seq=SEQ_ST,
        payload=PAYLOAD_ST,
    )
    def test_round_trip_exact(self, frame_type, session_id, seq, payload):
        raw = pack_frame(frame_type, session_id=session_id, seq=seq, payload=payload)
        frame = unpack_frame(raw)
        assert frame.frame_type == frame_type
        assert frame.session_id == session_id
        assert frame.seq == seq
        assert frame.payload == payload

    @given(
        payload=PAYLOAD_ST,
        seq=SEQ_ST,
        cut=st.integers(min_value=0, max_value=600),
    )
    def test_truncation_never_wrong_data(self, payload, seq, cut):
        raw = pack_frame(framing.FRAME_DATA, seq=seq, payload=payload)
        cut = min(cut, len(raw))
        truncated = raw[:cut]
        # Exact-buffer decode: anything short must raise, never mis-decode.
        if cut < len(raw):
            with pytest.raises(FrameError):
                unpack_frame(truncated)
        # Streaming decode: a partial frame yields nothing (the decoder
        # waits for the rest); a complete one yields exactly the original.
        decoder = FrameDecoder()
        decoder.feed(truncated)
        frames = list(decoder.frames())
        if cut < len(raw):
            assert frames == []
        else:
            assert len(frames) == 1
            assert frames[0].seq == seq
            assert frames[0].payload == payload

    @given(
        payload=PAYLOAD_ST,
        seq=SEQ_ST,
        at=st.integers(min_value=0, max_value=600),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_bit_flip_never_wrong_data(self, payload, seq, at, flip):
        raw = pack_frame(framing.FRAME_DATA, seq=seq, payload=payload)
        at = at % len(raw)
        damaged = bytearray(raw)
        damaged[at] ^= flip
        decoder = FrameDecoder()
        decoder.feed(bytes(damaged))
        # Whatever survives decoding must be the pristine frame: a CRC
        # collision from a single-byte change is impossible, so either
        # the frame is dropped/resynced or (if the flip restored the
        # original byte, excluded by flip >= 1) decoded intact.
        for frame in decoder.frames():
            assert frame.seq == seq
            assert frame.payload == payload
        assert decoder.n_crc_dropped + decoder.n_resyncs >= 1 or (
            decoder.n_frames == 0
        )

    @given(
        payloads=st.lists(PAYLOAD_ST, min_size=1, max_size=5),
        junk=st.binary(min_size=1, max_size=64).filter(
            lambda b: framing.MAGIC[:1] not in b
        ),
        where=st.integers(min_value=0, max_value=5),
        chunk=st.integers(min_value=1, max_value=97),
    )
    def test_junk_between_frames_recovered(self, payloads, junk, where, chunk):
        raws = [
            pack_frame(framing.FRAME_DATA, seq=k, payload=p)
            for k, p in enumerate(payloads)
        ]
        where = where % (len(raws) + 1)
        stream = b"".join(raws[:where]) + junk + b"".join(raws[where:])
        decoder = FrameDecoder()
        seen = []
        for start in range(0, len(stream), chunk):
            decoder.feed(stream[start : start + chunk])
            seen.extend(decoder.frames())
        # Junk holds no magic byte, so every real frame survives, in
        # order, with its exact content.
        assert [f.seq for f in seen] == list(range(len(payloads)))
        assert [f.payload for f in seen] == payloads

    @given(
        n_rx=st.integers(min_value=1, max_value=4),
        n_tx=st.integers(min_value=1, max_value=3),
        n_tones=st.integers(min_value=1, max_value=16),
        timestamp=st.floats(allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_data_payload_round_trip(self, n_rx, n_tx, n_tones, timestamp, seed):
        rng = np.random.default_rng(seed)
        shape = (n_rx, n_tx, n_tones)
        packet = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(
            np.complex64
        )
        payload = framing.pack_data_payload(timestamp, packet)
        ts, decoded = framing.unpack_data_payload(payload, shape)
        assert ts == float(timestamp)
        np.testing.assert_array_equal(decoded, packet)


class TestStoreLayoutLock:
    """The v1 chunk layout, byte for byte, independent of HeaderCodec."""

    def test_pack_chunk_golden_bytes(self):
        n, shape = 3, (2, 1, 4)
        data = (
            np.arange(n * np.prod(shape), dtype=np.float32)
            .reshape((n, *shape))
            .astype(np.complex64)
        )
        data.imag = -1.0
        times = np.array([0.0, 0.5, 1.0], dtype=np.float64)

        packed = store_format.pack_chunk(7, data, times)

        payload = times.tobytes() + data.tobytes()
        golden = (
            b"RIMC"
            + struct.pack(
                "<HHQIIQI",
                1,  # format version
                0,  # flags
                7,  # chunk seq
                n,  # sample count
                0,  # reserved
                len(payload),
                zlib.crc32(payload) & 0xFFFFFFFF,
            )
            + payload
        )
        assert packed == golden

    @given(
        seq=st.integers(min_value=0, max_value=2**32),
        n=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25)
    def test_pack_chunk_round_trip(self, seq, n, seed):
        rng = np.random.default_rng(seed)
        shape = (n, 2, 1, 3)
        data = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(
            np.complex64
        )
        times = rng.normal(size=n)
        packed = store_format.pack_chunk(seq, data, times)
        header = store_format.unpack_header(packed)
        assert header.seq == seq
        assert header.n_samples == n
        got_data, got_times = store_format.unpack_payload(
            header, packed[store_format.HEADER_SIZE :], (2, 1, 3)
        )
        np.testing.assert_array_equal(got_times, times.astype(np.float64))
        np.testing.assert_array_equal(got_data, data)


# -- wire fault injection ------------------------------------------------------


def _reference_draws(plan, seq):
    rng = np.random.default_rng((0x52494D4E, plan.seed, seq))
    return rng.uniform(size=5)


class _ReferenceInjector:
    """The injector as it was written before the single draw: every
    question about a seq re-seeds its own generator."""

    def __init__(self, plan):
        self.plan = plan
        self._held = None
        self.n_dropped = 0
        self.n_duplicated = 0
        self.n_corrupted = 0
        self.n_reordered = 0
        self.n_delayed = 0

    def drops(self, seq):
        return bool(_reference_draws(self.plan, seq)[0] < self.plan.drop_fraction)

    def duplicates(self, seq):
        return bool(
            _reference_draws(self.plan, seq)[1] < self.plan.duplicate_fraction
        )

    def corrupts(self, seq):
        return bool(
            _reference_draws(self.plan, seq)[2] < self.plan.corrupt_fraction
        )

    def delays(self, seq):
        return bool(_reference_draws(self.plan, seq)[3] < self.plan.delay_fraction)

    def swaps_with_next(self, seq):
        if seq % 2 != 0:
            return False
        return bool(
            _reference_draws(self.plan, seq)[4] < self.plan.reorder_fraction
        )

    def reset_stream(self):
        self._held = None

    def admit(self, seq, frame):
        plan = self.plan
        if plan.is_clean:
            return [(frame, 0.0)]
        out = []
        if self.drops(seq):
            self.n_dropped += 1
            frame = b""
        elif self.corrupts(seq):
            self.n_corrupted += 1
            frame = plan.corrupt_bytes(seq, frame)
        delay = plan.delay_s if (frame and self.delays(seq)) else 0.0
        if delay:
            self.n_delayed += 1
        if self._held is not None:
            held_seq, held_frame = self._held
            self._held = None
            if frame:
                out.append((frame, delay))
            if held_frame:
                out.append((held_frame, 0.0))
            if frame and held_frame:
                self.n_reordered += 1
            if frame and self.duplicates(seq):
                self.n_duplicated += 1
                out.append((frame, 0.0))
            if held_frame and self.duplicates(held_seq):
                self.n_duplicated += 1
                out.append((held_frame, 0.0))
            return out
        if self.swaps_with_next(seq):
            self._held = (seq, frame)
            return []
        if frame:
            out.append((frame, delay))
            if self.duplicates(seq):
                self.n_duplicated += 1
                out.append((frame, 0.0))
        return out

    def flush(self):
        if self._held is None:
            return []
        held_seq, held_frame = self._held
        self._held = None
        if not held_frame:
            return []
        out = [(held_frame, 0.0)]
        if self.duplicates(held_seq):
            self.n_duplicated += 1
            out.append((held_frame, 0.0))
        return out

    def counters(self):
        return {
            "dropped": self.n_dropped,
            "duplicated": self.n_duplicated,
            "corrupted": self.n_corrupted,
            "reordered": self.n_reordered,
            "delayed": self.n_delayed,
        }

    def delivered_seqs(self, n):
        return frozenset(
            seq for seq in range(n) if not (self.drops(seq) or self.corrupts(seq))
        )

    def expected_repairs(self, n):
        delivered = self.delivered_seqs(n)
        high = max(delivered) if delivered else -1
        return {
            "net_crc_dropped": sum(1 for seq in range(n) if self.corrupts(seq)),
            "net_gap_samples": sum(
                1 for seq in range(high + 1) if seq not in delivered
            ),
            "net_duplicate_dropped": sum(
                1 for seq in range(n) if seq in delivered and self.duplicates(seq)
            ),
        }


def _data_frame(seq):
    # Payload lengths vary with seq; seq % 7 == 0 carries none, so
    # corruption also hits the header-only branch of corrupt_bytes.
    return pack_frame(framing.FRAME_DATA, seq=seq, payload=bytes(seq % 7) * 3)


FRACTION_ST = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


@st.composite
def _stream_scripts(draw):
    """A plan plus the seqs a client admits: a run, a reset-and-resend
    from an earlier seq, the rest, and an end-of-stream flush."""
    plan = NetFaultPlan(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        drop_fraction=draw(FRACTION_ST),
        duplicate_fraction=draw(FRACTION_ST),
        reorder_fraction=draw(FRACTION_ST),
        corrupt_fraction=draw(FRACTION_ST),
        delay_fraction=draw(FRACTION_ST),
        delay_s=draw(st.sampled_from([0.0, 0.005])),
    )
    n = draw(st.integers(min_value=0, max_value=40))
    cut = draw(st.integers(min_value=0, max_value=n))
    resume = draw(st.integers(min_value=0, max_value=cut))
    return plan, n, cut, resume


class TestSingleDrawInjector:
    @given(script=_stream_scripts())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_injector(self, script):
        plan, n, cut, resume = script
        new, ref = WireFaultInjector(plan), _ReferenceInjector(plan)

        def both(call):
            got, want = call(new), call(ref)
            assert got == want  # bytes, order and delays
            assert new.counters() == ref.counters()

        for seq in range(cut):
            both(lambda inj: inj.admit(seq, _data_frame(seq)))
        # The transport dies, possibly with a swap held; the client
        # resends from an earlier seq on the new connection.
        new.reset_stream()
        ref.reset_stream()
        for seq in range(resume, n):
            both(lambda inj: inj.admit(seq, _data_frame(seq)))
        both(lambda inj: inj.flush())
        both(lambda inj: inj.flush())
        assert plan.delivered_seqs(n) == ref.delivered_seqs(n)
        assert plan.expected_repairs(n) == ref.expected_repairs(n)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        seq=st.integers(min_value=0, max_value=2**40),
        fractions=st.tuples(*[FRACTION_ST] * 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_predicates_read_the_single_decision(self, seed, seq, fractions):
        drop, dup, reorder, corrupt, delay = fractions
        plan = NetFaultPlan(
            seed=seed,
            drop_fraction=drop,
            duplicate_fraction=dup,
            reorder_fraction=reorder,
            corrupt_fraction=corrupt,
            delay_fraction=delay,
        )
        ref = _ReferenceInjector(plan)
        faults = plan.decide(seq)
        assert faults.drop == plan.drops(seq) == ref.drops(seq)
        assert faults.duplicate == plan.duplicates(seq) == ref.duplicates(seq)
        assert faults.corrupt == plan.corrupts(seq) == ref.corrupts(seq)
        assert faults.delay == plan.delays(seq) == ref.delays(seq)
        assert faults.swap == plan.swaps_with_next(seq) == ref.swaps_with_next(seq)

    def test_one_generator_per_admitted_frame(self, monkeypatch):
        built = []
        real = net_faults.default_rng

        def counting(seed):
            built.append(seed)
            return real(seed)

        monkeypatch.setattr(net_faults, "default_rng", counting)
        plan = NetFaultPlan(
            seed=11,
            drop_fraction=0.1,
            duplicate_fraction=0.2,
            reorder_fraction=0.5,
            corrupt_fraction=0.3,
            delay_fraction=0.2,
            delay_s=0.0,
        )
        injector = WireFaultInjector(plan)
        n = 200
        for seq in range(n):
            # Every frame carries a payload, so each corruption draws
            # the byte it flips.
            frame = pack_frame(framing.FRAME_DATA, seq=seq, payload=b"p" * 9)
            injector.admit(seq, frame)
        injector.flush()
        assert injector.n_corrupted > 0
        assert injector.n_reordered > 0
        assert len(built) == n + injector.n_corrupted
        built.clear()
        plan.delivered_seqs(n)
        assert len(built) == n
        built.clear()
        plan.expected_repairs(n)
        assert len(built) == n
