import pytest

from gpextremes import (
    DomainError,
    RngStream,
    SampleGrid,
    Stationary,
    VectorProcessSpec,
    audit_slepian,
    estimate_discrete_zero,
    estimate_pickands,
)
from gpextremes.parallel import BLOCK_SIZE, MIN_REPLICATIONS, replicate

STREAM = RngStream(2718)


def record(Rb, block):
    return Rb, block(), block("coord", 1), block("tilt", 0)


class TestReplicate:
    def test_blocks_and_streams_in_block_order(self):
        out = replicate(5000, STREAM, 1, record)
        assert [Rb for Rb, *_ in out] == [BLOCK_SIZE, BLOCK_SIZE, 904]
        for b, (_, whole, coord, tilt) in enumerate(out):
            assert whole == STREAM.child("block", b)
            assert coord == STREAM.child("block", b, "coord", 1)
            assert tilt == STREAM.child("block", b, "tilt", 0)

    def test_worker_count_invariance(self):
        assert replicate(5000, STREAM, 3, record) == replicate(5000, STREAM, 1, record)

    @pytest.mark.parametrize("R", [MIN_REPLICATIONS - 1, 0])
    def test_r_precondition(self, R):
        with pytest.raises(DomainError):
            replicate(R, STREAM, 1, record)

    def test_stream_required(self):
        with pytest.raises(DomainError):
            replicate(5000, None, 1, record)


def ou_spec():
    return VectorProcessSpec((Stationary(1.0, 1.0),), 1.0)


# Entry points that derive child streams before any replication runs.
CHILD_STREAM_ENTRY_POINTS = {
    "pickands": lambda stream: estimate_pickands([1.0], 1.0, (1.0, 2.0, 4.0), R=2000, stream=stream),
    "discrete_zero": lambda stream: estimate_discrete_zero([1.0], 1.0, (0.5, 0.25), 40.0, R=2000, stream=stream),
    "slepian": lambda stream: audit_slepian(ou_spec(), ou_spec(), [1.5], SampleGrid(0.0, 0.25, 5), 2000, stream),
}


@pytest.mark.parametrize("entry", CHILD_STREAM_ENTRY_POINTS.values(), ids=CHILD_STREAM_ENTRY_POINTS.keys())
def test_missing_stream_is_domain_error(entry):
    with pytest.raises(DomainError, match="an RngStream is required"):
        entry(None)
