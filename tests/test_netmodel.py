import json
import re

import numpy as np
import pytest

from swingfreq.netmodel import (
    AssumptionViolation,
    CaseError,
    ConvergenceError,
    Network,
    bundled_case_path,
    coi_project,
    grad_S,
    hessian_S,
    load_case,
    potential_S,
    solve_equilibrium,
)
from swingfreq.netmodel import hess_S_vecprod


def write_case(tmp_path, doc, name="case.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def simple_case(**overrides):
    doc = {
        "version": 1,
        "buses": [
            {"id": 1, "M": 1.0, "D": 1.0, "p_star": 0.5},
            {"id": 2, "M": 1.0, "D": 1.0, "p_star": -0.5},
        ],
        "lines": [{"from": 1, "to": 2, "B": 1.0}],
    }
    doc.update(overrides)
    return doc


class TestLoadCase:
    def test_two_bus_fields(self, tmp_path):
        net = load_case(write_case(tmp_path, simple_case()))
        assert net.n == 2
        assert net.n_edges == 1
        assert net.bus_ids == (1, 2)
        np.testing.assert_array_equal(net.M, [1.0, 1.0])
        np.testing.assert_array_equal(net.p_star, [0.5, -0.5])
        np.testing.assert_array_equal(net.incidence, [[1.0, -1.0]])

    def test_case_without_lines_rejected(self, tmp_path):
        doc = simple_case(
            buses=[{"id": 1, "M": 1.0, "D": 1.0, "p_star": 0.0}], lines=[]
        )
        path = write_case(tmp_path, doc)
        with pytest.raises(CaseError, match=rf"{re.escape(str(path))} has no lines"):
            load_case(path)

    def test_self_loop_rejected_naming_bus(self, tmp_path):
        doc = simple_case(lines=[{"from": 1, "to": 1, "B": 1.0}])
        with pytest.raises(CaseError, match="self-loop at bus 1"):
            load_case(write_case(tmp_path, doc))

    def test_zero_susceptance_rejected_naming_line(self, tmp_path):
        doc = simple_case(lines=[{"from": 1, "to": 2, "B": 0.0}])
        with pytest.raises(CaseError, match="zero susceptance on line 1-2"):
            load_case(write_case(tmp_path, doc))

    def test_negative_susceptance_rejected(self, tmp_path):
        doc = simple_case(lines=[{"from": 1, "to": 2, "B": -1.0}])
        with pytest.raises(CaseError, match="negative susceptance"):
            load_case(write_case(tmp_path, doc))

    def test_bundled_39_bus(self, ne39):
        assert ne39.n == 39
        assert ne39.n_edges == 46
        assert ne39.bus_ids == tuple(range(1, 40))
        # lossless equilibrium needs balanced setpoints
        assert abs(ne39.p_star.sum()) <= 1e-9

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(CaseError, match=str(missing)):
            load_case(missing)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(CaseError, match="malformed"):
            load_case(p)

    def test_unreadable_path_names_it(self, tmp_path):
        name = re.escape(str(tmp_path))
        with pytest.raises(CaseError, match=rf"cannot read case file '{name}': Is a directory"):
            load_case(tmp_path)

    def test_undecodable_file_names_it(self, tmp_path):
        p = tmp_path / "bytes.json"
        p.write_bytes(b"\xff{}")
        with pytest.raises(CaseError, match=rf"malformed case file {re.escape(str(p))}: .*0xff"):
            load_case(p)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("where, message", [
        ("M", "non-finite inertia at bus 2"),
        ("D", "non-finite damping at bus 2"),
        ("B", "non-finite susceptance on line 1-2"),
        ("p_star", "non-finite p_star at bus 2"),
    ])
    def test_non_finite_value_names_bus_or_line(self, tmp_path, where, message, literal):
        doc = simple_case()
        if where == "B":
            doc["lines"][0]["B"] = "X"
        else:
            doc["buses"][1][where] = "X"
        p = tmp_path / "case.json"
        p.write_text(json.dumps(doc).replace('"X"', literal))
        with pytest.raises(CaseError, match=message):
            load_case(p)

    def test_repair_balance_keeps_the_non_finite_bus(self, tmp_path):
        doc = simple_case()
        doc["buses"][1]["p_star"] = "X"
        p = tmp_path / "case.json"
        p.write_text(json.dumps(doc).replace('"X"', "NaN"))
        with pytest.raises(CaseError, match="non-finite p_star at bus 2"):
            load_case(p, repair_balance=True)

    def test_unknown_bus_in_line(self, tmp_path):
        doc = simple_case(lines=[{"from": 1, "to": 7, "B": 1.0}])
        with pytest.raises(CaseError, match="unknown bus 7"):
            load_case(write_case(tmp_path, doc))

    def test_negative_inertia_names_bus(self, tmp_path):
        doc = simple_case()
        doc["buses"][1]["M"] = -2.0
        with pytest.raises(CaseError, match="negative inertia at bus 2"):
            load_case(write_case(tmp_path, doc))

    def test_unbalanced_setpoints_rejected(self, tmp_path):
        doc = simple_case()
        doc["buses"][0]["p_star"] = 0.6
        with pytest.raises(CaseError, match="unbalanced"):
            load_case(write_case(tmp_path, doc))

    def test_repair_balance_subtracts_mean(self, tmp_path):
        doc = simple_case()
        doc["buses"][0]["p_star"] = 0.6
        net = load_case(write_case(tmp_path, doc), repair_balance=True)
        np.testing.assert_allclose(net.p_star, [0.55, -0.55])
        assert abs(net.p_star.sum()) <= 1e-12

    def test_disconnected_graph_rejected(self, tmp_path):
        doc = {
            "version": 1,
            "buses": [
                {"id": 1, "M": 1.0, "D": 1.0, "p_star": 0.1},
                {"id": 2, "M": 1.0, "D": 1.0, "p_star": -0.1},
                {"id": 3, "M": 1.0, "D": 1.0, "p_star": 0.0},
            ],
            "lines": [{"from": 1, "to": 2, "B": 1.0}],
        }
        with pytest.raises(CaseError, match="disconnected"):
            load_case(write_case(tmp_path, doc))

    def test_duplicate_line_rejected(self, tmp_path):
        doc = simple_case(
            lines=[{"from": 1, "to": 2, "B": 1.0}, {"from": 2, "to": 1, "B": 0.5}]
        )
        with pytest.raises(CaseError, match="duplicate line"):
            load_case(write_case(tmp_path, doc))

    def test_unsupported_version(self, tmp_path):
        with pytest.raises(CaseError, match="version"):
            load_case(write_case(tmp_path, simple_case(version=2)))

    def test_unknown_bundled_name(self):
        with pytest.raises(CaseError, match="nope"):
            bundled_case_path("nope")

    def test_arrays_read_only(self, two_bus):
        with pytest.raises(ValueError):
            two_bus.p_star[0] = 1.0
        with pytest.raises(ValueError):
            two_bus.incidence[0, 1] = 2.0


class TestPotential:
    def test_grad_zero_at_zero(self, ne39):
        np.testing.assert_array_equal(grad_S(ne39, np.zeros(39)), np.zeros(39))

    def test_grad_two_bus_value(self, two_bus):
        g = grad_S(two_bus, np.array([0.05, -0.05]))
        np.testing.assert_allclose(g, [0.099833416647, -0.099833416647], atol=1e-12)

    def test_conservation_identity(self, ne39):
        rng = np.random.default_rng(7)
        deltas = rng.uniform(-np.pi, np.pi, (200, 39))
        sums = grad_S(ne39, deltas).sum(axis=-1)
        assert np.abs(sums).max() <= 1e-12

    def test_grad_matches_finite_differences(self, ring3):
        rng = np.random.default_rng(3)
        delta = rng.uniform(-0.4, 0.4, 3)
        g = grad_S(ring3, delta)
        h = 1e-5
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (potential_S(ring3, delta + e) - potential_S(ring3, delta - e)) / (2 * h)
            assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))

    def test_hessian_two_bus_at_zero(self, two_bus):
        H = hessian_S(two_bus, np.zeros(2))
        np.testing.assert_allclose(H, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_hessian_edge_at_right_angle_drops_out(self, two_bus):
        H = hessian_S(two_bus, np.array([np.pi / 4, -np.pi / 4]))
        np.testing.assert_allclose(H, np.zeros((2, 2)), atol=1e-15)

    def test_hessian_row_sums_zero(self, ne39):
        delta = np.random.default_rng(11).uniform(-0.3, 0.3, 39)
        H = hessian_S(ne39, delta)
        np.testing.assert_allclose(H, H.T, atol=1e-15)
        assert np.abs(H.sum(axis=1)).max() <= 1e-12

    def test_hessian_batches_bitwise_and_matches_edge_assembly(self, ne39):
        deltas = np.random.default_rng(12).uniform(-0.6, 0.6, (6, 39))
        H = hessian_S(ne39, deltas)
        assert H.shape == (6, 39, 39)
        for delta, h in zip(deltas, H):
            np.testing.assert_array_equal(h, hessian_S(ne39, delta))
            # oracle: the Laplacian accumulated edge by edge
            lap = np.zeros((39, 39))
            for (i, j), b in zip(ne39.edges, ne39.b_edge):
                w = b * np.cos(delta[i] - delta[j])
                np.add.at(lap, ([i, j, i, j], [i, j, j, i]), [w, w, -w, -w])
            np.testing.assert_allclose(h, lap, rtol=0, atol=1e-13)
        assert np.abs(H.sum(axis=-1)).max() <= 1e-13

    def test_hessian_psd_on_coi_subspace(self, ne39, ne39_eq):
        # small angle spreads keep every edge difference within pi/2
        rng = np.random.default_rng(5)
        for _ in range(20):
            delta = coi_project(ne39_eq + rng.uniform(-0.05, 0.05, 39))
            w = np.linalg.eigvalsh(hessian_S(ne39, delta) + np.ones((39, 39)) / 39)
            assert w.min() > 0

    def test_edge_differences_equal_the_gather(self, ne39):
        i, j = np.array(ne39.edges).T
        rng = np.random.default_rng(4)
        for shape in ((39,), (1, 39), (5, 121, 39)):
            delta = rng.uniform(-2, 2, shape)
            np.testing.assert_array_equal(
                ne39.edge_differences(delta), delta[..., i] - delta[..., j]
            )

    def test_hessian_vecprod_matches_dense(self, ne39):
        rng = np.random.default_rng(13)
        delta = rng.uniform(-0.2, 0.2, 39)
        v = rng.normal(size=39)
        np.testing.assert_allclose(
            hess_S_vecprod(ne39, delta, v), hessian_S(ne39, delta) @ v, atol=1e-12
        )


class TestEquilibrium:
    def test_two_bus_closed_form(self, two_bus, two_bus_eq):
        # sin(d1 - d2) = 0.5 exactly, so d1 = arcsin(0.5)/2 in the COI gauge
        assert abs(two_bus_eq[0] - 0.261799387799) <= 1e-10
        assert abs(two_bus_eq[0] + two_bus_eq[1]) <= 1e-15
        assert abs(two_bus_eq[0] - two_bus_eq[1] - np.arcsin(0.5)) <= 1e-12

    def test_zero_injection_gives_zero_angles(self, two_bus):
        net = Network(
            name="idle",
            bus_ids=two_bus.bus_ids,
            M=two_bus.M,
            D=two_bus.D,
            p_star=np.zeros(2),
            edges=two_bus.edges,
            b_edge=two_bus.b_edge,
        )
        np.testing.assert_array_equal(solve_equilibrium(net), np.zeros(2))

    def test_ring3_matches_brute_force(self, ring3):
        expected = [0.100393008582512, -0.033464378279174, -0.066928630303338]
        np.testing.assert_allclose(solve_equilibrium(ring3), expected, atol=1e-10)

    def test_residual_tolerance(self, ne39, ne39_eq):
        res = grad_S(ne39, ne39_eq) - ne39.p_star
        assert np.abs(res).max() <= 1e-8

    def test_coi_gauge(self, ne39_eq):
        assert abs(ne39_eq.sum()) <= 1e-12

    def test_within_operating_region(self, ne39, ne39_eq):
        assert np.abs(ne39.edge_differences(ne39_eq)).max() < np.pi / 2

    def test_invariant_under_initial_guess(self, ne39, ne39_eq):
        rng = np.random.default_rng(2)
        for _ in range(5):
            guess = ne39_eq + rng.uniform(-0.1, 0.1, 39)
            np.testing.assert_allclose(
                solve_equilibrium(ne39, guess), ne39_eq, atol=1e-8
            )

    def test_infeasible_setpoints_raise(self, two_bus):
        net = Network(
            name="hot",
            bus_ids=two_bus.bus_ids,
            M=two_bus.M,
            D=two_bus.D,
            p_star=np.array([1.5, -1.5]),  # exceeds the line's 1.0 p.u. capacity
            edges=two_bus.edges,
            b_edge=two_bus.b_edge,
        )
        with pytest.raises((ConvergenceError, AssumptionViolation)):
            solve_equilibrium(net)

    def test_result_read_only(self, two_bus_eq):
        with pytest.raises(ValueError):
            two_bus_eq[0] = 0.0


def test_coi_project_batched():
    rng = np.random.default_rng(1)
    d = rng.normal(size=(4, 7))
    out = coi_project(d)
    assert np.abs(out.sum(axis=-1)).max() <= 1e-14
    np.testing.assert_array_equal(out, d - d.mean(axis=-1, keepdims=True))
