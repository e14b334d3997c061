"""Cost certifier: folding rules and tolerance envelope."""

import pytest

from repro.campaign.registry import get_variant
from repro.commcheck import CommGraph, certify
from repro.commcheck.certify import measured_costs


def mkgraph(ranks, meta=None):
    base = {
        "variant": "parallel", "p": 9, "k": 2, "f": 1,
        "n_words": 38, "code_ranks": [],
    }
    base.update(meta or {})
    return CommGraph(meta=base, ranks=ranks)


class TestMeasuredCosts:
    def test_folds_both_endpoints_and_takes_max_rank(self):
        g = mkgraph(
            {
                0: [
                    {"op": "send", "phase": "x", "peer": 1, "tag": 0,
                     "words": 10, "hops": 2, "inc": 0},
                ],
                1: [
                    {"op": "recv", "phase": "x", "peer": 0, "tag": 0,
                     "words": 10, "hops": 2, "inc": 0},
                    {"op": "send", "phase": "x", "peer": 0, "tag": 1,
                     "words": 5, "hops": 1, "inc": 0},
                ],
            }
        )
        bw, l = measured_costs(g)
        assert bw == 15  # rank 1: 10 received + 5 sent
        assert l == 3  # rank 1: 2 + 1 hops

    def test_modeled_transport_is_skipped_collective_counted(self):
        g = mkgraph(
            {
                0: [
                    {"op": "send", "phase": "x", "peer": 1, "tag": 0,
                     "words": 99, "hops": 9, "inc": 0, "modeled": True},
                    {"op": "collective", "phase": "x", "name": "t_reduce",
                     "group": [0, 1], "bw": 7, "l": 4, "inc": 0},
                ],
            }
        )
        assert measured_costs(g) == (7, 4)

    def test_empty_graph(self):
        assert measured_costs(mkgraph({0: []})) == (0.0, 0.0)


class TestCertify:
    def test_live_variants_certify(self, live_reports):
        for name, report in live_reports.items():
            cert = report.certification
            assert cert is not None and cert.passed, (name, cert and cert.detail)

    def test_every_variant_has_a_tolerance(self, live_reports):
        # Each variant's cost contract carries its calibrated tolerances.
        for name in live_reports:
            cost = get_variant(name).cost
            assert cost is not None, name
            assert cost.tol_bw > 0 and cost.tol_l > 0

    def test_tiny_tolerance_scale_fails(self, live_reports):
        graph = live_reports["parallel"].graph
        cert = certify(graph, tolerance_scale=0.001)
        assert not cert.passed
        assert "exceeds" in cert.detail

    def test_bw_regression_fails(self, live_reports):
        # Double every payload: the envelope (~2x headroom) must reject it.
        graph = live_reports["parallel"].graph
        inflated = {
            rank: [
                {**op, "words": op["words"] * 3}
                if op.get("op") in ("send", "recv")
                else dict(op)
                for op in ops
            ]
            for rank, ops in graph.ranks.items()
        }
        cert = certify(CommGraph(meta=dict(graph.meta), ranks=inflated))
        assert not cert.passed

    def test_unknown_variant_raises(self):
        g = mkgraph({0: []}, meta={"variant": "mystery"})
        with pytest.raises(ValueError):
            certify(g)
