"""Tests of the benchmark itself: seeded inputs, the oracles, failure counting.

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from toricpoints import cli, lowdeg, plane  # noqa: E402
from toricpoints.cohomology import cohomology  # noqa: E402
from toricpoints.divisor import ToricDivisor, intersect_primes, intersection_number  # noqa: E402
from toricpoints.fan import build_fan, hirzebruch  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return run.Program()


def _fingerprint(ops, prog):
    """What the program receives, minus the names of temporary files."""
    out = []
    for op in ops:
        cell = op.call.__closure__
        values = [c.cell_contents for c in cell] if cell else []
        for v in values:
            if isinstance(v, prog.lowdeg.CurveOnSurface):
                out.append((v.fan.rays, v.curve_class.coeffs, v.multiplicities))
            elif isinstance(v, list):
                out.append(tuple(a if not a.endswith(".json") else Path(a).read_text() for a in v))
    return out


def _build(name, prog, seed, passes, tmpdir):
    files = workloads.Files(str(tmpdir))
    ops = workloads.WORKLOADS[name](prog, seed, passes, files)
    files.flush()
    return ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, prog, tmp_path):
    def inputs(seed, sub):
        (tmp_path / sub).mkdir()
        return _fingerprint(_build(name, prog, seed, 2, tmp_path / sub), prog)

    first = inputs(7, "a")
    assert first and first == inputs(7, "b")
    assert inputs(8, "c") != first


@pytest.mark.parametrize("name", ["report-wide", "report-deep"])
def test_report_inputs_are_distinct(name, prog, tmp_path):
    ops = _build(name, prog, 3, 2, tmp_path)
    seen = _fingerprint(ops, prog)
    assert len(set(seen)) == len(seen)


def test_edge_lengths_close_up_to_an_ample_class():
    rng = random.Random(1)
    for _ in range(50):
        rays = gen.transform(gen.blow_up(gen.P2_RAYS, rng, rng.randint(3, 9)), rng)
        inp = gen.curve(rng, rays, 1, 4)
        fan = build_fan(rays)
        C = ToricDivisor(fan, inp.coeffs)
        assert tuple(intersect_primes(C)) == inp.lengths
        assert min(inp.lengths) >= 1
        assert intersection_number(C, C) == sum(a * l for a, l in zip(inp.coeffs, inp.lengths))


def test_lambda_oracle_matches_subset_scan_and_program():
    rng = random.Random(2)
    for _ in range(30):
        rays = gen.transform(gen.blow_up(gen.P2_RAYS, rng, rng.randint(3, 10)), rng)
        b = oracles.wall_numbers(rays)
        brute = min(
            oracles.subset_value(b, s)
            for r in range(len(b) + 1)
            for s in itertools.combinations(range(len(b)), r)
        )
        assert oracles.lambda_inner_min(b) == brute
        res = lowdeg.lambda_invariant(build_fan(rays))
        assert oracles.check_lambda(rays, res.value, res.argmin_subset, res.inner_min) == []
        assert oracles.check_lambda(rays, res.value + Fraction(1, 4), res.argmin_subset) != []


def _report(inp):
    fan = build_fan(inp.rays)
    curve = lowdeg.CurveOnSurface(fan, ToricDivisor(fan, inp.coeffs), inp.mults)
    return oracles.report_fields(lowdeg.toric_theorem_report(curve))


def test_report_oracle_agrees_and_rejects_wrong_values():
    rng = random.Random(3)
    seen_rep = seen_none = 0
    for k in range(40):
        rays = gen.transform(gen.blow_up(gen.P2_RAYS, rng, rng.randint(3, 7)), rng)
        inp = gen.curve(rng, rays, 1, 3, tuple(rng.randint(2, 3) for _ in range(k % 3)))
        fields = _report(inp)
        assert oracles.check_report(inp.rays, inp.coeffs, inp.lengths, inp.mults, fields) == []
        if fields["positive_rep"] is None:
            seen_none += 1
            continue
        seen_rep += 1
        for key, wrong in [
            ("C2", fields["C2"] + 1),
            ("e_max", (fields["e_max"] or 0) + 1),
            ("degree_bound", fields["degree_bound"] + Fraction(1, 9)),
            ("CD", fields["CD"] - 1),
            ("positive_rep", tuple(c + 1 for c in fields["positive_rep"])),
            ("interp_divisor", tuple(c + 1 for c in fields["interp_divisor"])),
        ]:
            bad = dict(fields, **{key: wrong})
            assert oracles.check_report(inp.rays, inp.coeffs, inp.lengths, inp.mults, bad), key
        verdicts = dict(fields["hypothesis_verdicts"])
        verdicts["blowup_ample"] = (
            oracles.NOT_CERTIFIED if verdicts["blowup_ample"] == oracles.CERTIFIED else oracles.CERTIFIED
        )
        bad = dict(fields, hypothesis_verdicts=verdicts)
        assert oracles.check_report(inp.rays, inp.coeffs, inp.lengths, inp.mults, bad)
    assert seen_rep and seen_none


def test_anticanonical_class_has_no_positive_representation():
    rays = gen.P2_RAYS
    inp = gen.CurveInput(rays, (1, 1, 1), (3, 3, 3), (), 0)  # -K on P^2, p_a = 1
    fields = _report(inp)
    assert fields["positive_rep"] is None
    assert oracles.check_report(rays, inp.coeffs, inp.lengths, (), fields) == []


def test_plane_oracle_agrees_and_rejects_wrong_values():
    rng = random.Random(4)
    for rung in range(len(workloads.PLANE_LADDER) - 2):
        for _ in range(10):
            d, delta, e = workloads._plane_args(rng, rung)
            out = cli.jsonable(plane.plane_theorem_report(d, delta, e))
            assert oracles.check_plane(d, delta, e, out) == []
            assert oracles.check_plane(d, delta, e, dict(out, ceil_term=out["ceil_term"] + 1))
            assert oracles.check_plane(d, delta, e, dict(out, m=(out["m"] or 0) + 1))
            assert oracles.plane_t(d, delta) == plane.sqrt_ceil_term(d, delta)
            assert oracles.plane_m(d, delta, e) == plane.find_m(d, delta, e)


def test_hirzebruch_oracles_agree_and_reject_wrong_values():
    for m in range(4):
        fan = hirzebruch(m)
        for a in range(4):
            for b in range(m * a, m * a + 4):
                prof = cohomology(ToricDivisor(fan, (b, a, 0, 0)))
                out = dataclasses.asdict(prof)
                assert oracles.check_cohomology(out, oracles.hirzebruch_h0(m, a, b)) == []
                assert oracles.check_cohomology(out, oracles.hirzebruch_h0(m, a, b) + 1)
                for c, d in [(1, -2), (-3, 4)]:
                    got = intersection_number(ToricDivisor(fan, (b, a, 0, 0)), ToricDivisor(fan, (d, c, 0, 0)))
                    assert got == oracles.hirzebruch_pairing(m, a, b, c, d)
    for n in (1, 5, 12):
        out = cli.jsonable(lowdeg.hirzebruch_counterexample(n))
        assert oracles.check_hirzebruch_example(n, out) == []
        assert oracles.check_hirzebruch_example(n, dict(out, deg_P=out["deg_P"] + 1))


def test_every_cli_op_checks_out_except_the_known_faults(prog, tmp_path):
    ops = _build("cli-mix", prog, 5, 1, tmp_path)
    names = {op.name for op in ops}
    assert names >= {"lambda", "cohomology", "intersect", "check-toric", "plane", "hirzebruch-example"}
    _, _, failed, wrong = run.run_ops(prog, ops, run.arithmetic_kernel)
    assert wrong == []
    assert failed == workloads.KNOWN_FAULT_COPIES * len(workloads.KNOWN_FAULTS)


def test_wrong_cli_output_is_reported(prog, tmp_path):
    op = workloads._cli_op(
        ["intersect", "--surface", "F1", "--divisor=C0", "--curve=C0", "--json"],
        workloads._check_intersection(0),  # C0^2 = -1 on F_1
    )
    _, _, failed, wrong = run.run_ops(prog, [op], run.text_kernel)
    assert failed == 0 and len(wrong) == 1


def test_an_operation_that_raises_is_counted_as_failed(prog):
    def boom(p):
        raise ZeroDivisionError("program fault")

    ok = workloads.Op("ok", lambda p: 1, lambda result: [])
    ops = [ok, workloads.Op("boom", boom, lambda result: []), ok]
    latencies, scaled, failed, wrong = run.run_ops(prog, ops, run.arithmetic_kernel)
    assert (len(latencies), failed, wrong) == (3, 1, [])


def test_malformed_input_that_is_accepted_is_counted_as_failed(prog):
    op = workloads._malformed_op(["lambda", "--surface", "P2", "--json"])
    _, _, failed, wrong = run.run_ops(prog, [op], run.text_kernel)
    assert (failed, wrong) == (1, [])


def test_tracer_self_time_and_layer_metrics(prog, tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops = _build("report-wide", prog, 1, 1, tmp_path)[:3]
        for op in ops:
            op.call(prog)
    finally:
        tracer.uninstall()
    summary = spans.summarize(tracer.spans)
    report = summary["lowdeg.toric_theorem_report"]
    assert report["calls"] == 3
    assert 0 < report["self_ns"] < report["total_ns"]
    metrics = spans.layer_metrics(tracer, prog.geometry.feasible_vertices)
    assert metrics["lowdeg.lambda_invariant.subsets"]["value"] == sum(
        2 ** op.call.__closure__[0].cell_contents.fan.n for op in ops
    )
    assert 0 < metrics["geometry.lattice_points.hit_ratio"]["value"] <= 1
    # the wrappers are gone again
    assert not hasattr(prog.lowdeg.toric_theorem_report, "__wrapped__")


def test_runner_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cli-mix", "--seed", "1", "--seconds", "1"]) == 2


def test_plane_inputs_left_out_are_exactly_those_that_trip_an_assert():
    assert workloads._trips_plane_assert(9, 2, 6)
    with pytest.raises(AssertionError):
        plane.plane_theorem_report(9, 2, 6)
    rng = random.Random(6)
    for k in range(3000):
        args = workloads._plane_args(rng, k % 2)
        try:
            plane.plane_theorem_report(*args)
            raised = False
        except AssertionError:
            raised = True
        assert raised == workloads._trips_plane_assert(*args), args
