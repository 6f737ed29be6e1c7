"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, patched_bindings  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def cli():
    return worker.import_ghk()


def write_files(requests, directory: Path) -> None:
    for req in requests:
        for name, doc in req["files"].items():
            (directory / name).write_text(json.dumps(doc))


def cost_params(req: dict) -> tuple:
    """The parameters that set a request's cost, without the seeded geometry."""
    argv = req["argv"]
    flags = {k: v for k, v in zip(argv, argv[1:]) if k in ("--max-n", "--q", "--q-mark", "--r")}
    prime = next((int(v) for k, v in zip(argv, argv[1:]) if k == "--prime"), 0)
    return (argv[0], req["exit"], "--file" in argv, prime < 100 and prime,
            tuple(sorted(flags.items())))


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_byte_identical_requests(name):
    assert json.dumps(workloads.generate(name, 5)) == json.dumps(workloads.generate(name, 5))


@pytest.mark.parametrize("name", WORKLOADS)
def test_requests_without_expectations_are_the_same(name):
    full = workloads.generate(name, 5)
    bare = workloads.generate(name, 5, expect=False)
    assert all(r["fields"] is None for r in bare)
    assert [{k: v for k, v in r.items() if k not in ("fields", "svg_gap_dots")} for r in full] == [
        {k: v for k, v in r.items() if k != "fields"} for r in bare]


def test_verify_inputs_pass_in_the_model():
    for r, m in workloads.VERIFY_VERONESE:
        assert workloads.verify_passes(workloads.M.veronese(r, m)), (r, m)


@pytest.mark.parametrize("name", WORKLOADS)
def test_seeds_differ_only_in_geometry(name):
    lists = [workloads.generate(name, seed) for seed in (1, 2, 3)]
    assert lists[0] != lists[1]
    skeletons = [Counter(map(cost_params, reqs)) for reqs in lists]
    assert skeletons[0] == skeletons[1] == skeletons[2]
    assert all(len(reqs) >= 100 for reqs in lists)


def instance(req: dict):
    argv = req["argv"]
    if "--family" in argv:
        rays, gens, closed = oracle.family(argv[argv.index("--family") + 1])
    else:
        doc = req["files"][argv[argv.index("--file") + 1]]
        rays, gens, closed = doc["cone"]["rays"], doc["generators"], None
    normals = oracle.cone_normals(*rays)
    gens = oracle.minimal([tuple(g) for g in gens], normals)
    corners = [oracle.corner(normals, g) for g in gens]
    thr = (min(c[0] for c in corners), min(c[1] for c in corners))
    return normals, gens, corners, thr, closed


def arg(req, flag):
    argv = req["argv"]
    return int(argv[argv.index(flag) + 1]) if flag in argv else None


def oracle_fields(req: dict):
    """Expected fields recomputed by brute force, or None when too large to scan.

    verify and reptype are left out: their expectations are the
    definition itself (all suites pass; the pairing sum).
    """
    kind, fields = req["kind"], {}
    if kind in ("verify", "reptype"):
        return None
    normals, gens, corners, (c1, c2), closed = instance(req)

    def scaled(q):
        return (q * c1, q * c2)

    def power_corners(n):
        return [oracle.corner(normals, g) for g in oracle.minimal(oracle.power(gens, n), normals)]

    def too_big(q, n_max=1):
        multisets = sum(comb(n + len(gens) - 1, n) for n in range(1, n_max + 1))
        return multisets > 20000 or oracle.box_size(normals, scaled(q), [
            (q * s, q * t) for s, t in corners]) > 200000

    area = oracle.complement_area(normals, (c1, c2), corners)
    if kind == "eghk":
        fields["results.eghk.rational"] = str(area)
        fields["results.saturated"] = oracle.count_between(normals, (c1, c2), None, corners) == 0
        fields["results.thresholds"] = [c1, c2]
        fields["results.det_abs"] = normals[2]
        if closed is not None:
            assert closed == area, "family closed form disagrees with the shoelace area"
            fields["results.closed_form.rational"] = str(closed)
    elif kind == "function":
        p, n = arg(req, "--prime"), arg(req, "--max-n")
        if too_big(p**n):
            return None
        fields["results.values"] = [
            oracle.count_between(normals, scaled(p**k), None,
                                 [(p**k * s, p**k * t) for s, t in corners])
            for k in range(n + 1)]
        fields["results.limit.rational"] = str(area)
    elif kind == "split":
        q = arg(req, "--q")
        if too_big(q, q):
            return None
        frob = [(q * s, q * t) for s, t in corners]
        ordinary = power_corners(q)
        fields["results.total_gap"] = oracle.count_between(normals, scaled(q), None, frob)
        fields["results.sym_vs_ord"] = oracle.count_between(normals, scaled(q), None, ordinary)
        fields["results.ord_vs_frob"] = oracle.count_between(normals, scaled(q), ordinary, frob)
    elif kind == "powers":
        n_max = arg(req, "--max-n")
        if too_big(n_max, n_max):
            return None
        values = [oracle.count_between(normals, scaled(n), None, power_corners(n))
                  for n in range(1, n_max + 1)]
        fields["results.values"] = values
        fields["results.epsilon_estimate.rational"] = str(Fraction(values[-1], n_max * n_max))
        if "results.torsion.order" in req["fields"]:
            r, shift = next(
                (r, p) for r in range(1, normals[2] + 1)
                for p in oracle.box_points(normals, r * c1, r * c1 + 1, r * c2, r * c2 + 1))
            fields["results.torsion.order"] = r
            fields["results.torsion.shift"] = list(shift)
            fields["results.torsion.primary_generators"] = [
                [x - shift[0], y - shift[1]]
                for x, y in oracle.minimal(oracle.power(gens, r), normals)]
            # each fitted class reproduces the brute-force values from its onset on
            for residue, onset in enumerate(req["fields"]["results.fit.classes.*.onset"]):
                a2, a1, a0 = map(Fraction, req["fields"][
                    "results.fit.classes.*.coefficients.*.rational"][residue])
                for i in range(onset, n_max, r):
                    assert a2 * i * i + a1 * i + a0 == values[i]
    elif kind == "plot":
        q = arg(req, "--q-mark")
        if too_big(q, q):
            return None
        ordinary = oracle.complement_area(normals, scaled(q), power_corners(q)) / (q * q)
        fields["results.areas.total_gap.rational"] = str(area)
        fields["results.areas.ordinary_gap.rational"] = str(ordinary)
        fields["results.areas.band.rational"] = str(area - ordinary)
        fields["svg_gap_dots"] = oracle.count_between(
            normals, scaled(q), None, [(q * s, q * t) for s, t in corners])
    return fields


@pytest.mark.parametrize("name,seed", [("corpus", 1), ("corpus", 2), ("powers", 1)])
def test_oracle_agrees_with_expectations(name, seed):
    checked = Counter()
    for req in workloads.generate(name, seed):
        if req["exit"] != 0:
            continue
        fields = oracle_fields(req)
        if fields is None:
            continue
        expected = dict(req["fields"], svg_gap_dots=req.get("svg_gap_dots"))
        for key, value in fields.items():
            assert expected[key] == value, (req["argv"], key)
        checked[req["kind"]] += 1
    if name == "corpus":
        assert set(checked) == {"eghk", "function", "split", "powers", "plot"}
        assert sum(checked.values()) >= 120
    else:
        assert checked["powers"] >= 20


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_code_passes_every_check(name, cli, tmp_path, monkeypatch):
    requests = workloads.generate(name, 11)  # a seed used nowhere else
    write_files(requests, tmp_path)
    monkeypatch.chdir(tmp_path)
    result = worker.run_pass(cli, requests)
    assert result["failed"] == 0 and result["attempted"] == len(requests)


def test_perturbed_expectation_counts_as_failure(cli, tmp_path, monkeypatch):
    requests = [r for r in workloads.generate("corpus", 4) if r["kind"] == "function"][:4]
    write_files(requests, tmp_path)
    monkeypatch.chdir(tmp_path)
    wrong = [json.loads(json.dumps(r)) for r in requests]
    wrong[0]["fields"]["results.values"][-1] += 1
    wrong[1]["exit"] = 1 - wrong[1]["exit"]
    result = worker.run_pass(cli, requests + wrong)
    assert (result["attempted"], result["failed"]) == (8, 2)
    assert min(result["scaled"]) > 0


def test_self_times_sum_to_traced_wall_time(cli, tmp_path, monkeypatch):
    requests = workloads.generate("corpus", 3)[:60] + workloads.generate("tower", 3)[:4]
    write_files(requests, tmp_path)
    monkeypatch.chdir(tmp_path)
    tracer = Tracer()
    tracer.install()
    assert patched_bindings()
    try:
        elapsed = 0.0
        for req in requests:
            tracer.begin_request()
            elapsed += worker.run_one(cli, req["argv"])[0]
    finally:
        tracer.uninstall()
    assert not patched_bindings()
    # the root span is the whole request, and the layers cover nearly all of it
    assert "cli.run_command" in tracer.wrapped
    layers = sum(tracer.self_s.values()) + tracer.overhead_s
    assert layers == pytest.approx(tracer.root_s, rel=1e-9)
    assert 0.9 * elapsed <= tracer.root_s <= elapsed
    metrics = tracer.metrics()
    for layer in ("geometry", "ideals", "invariants", "checks", "cli", "svgplot", "reptype",
                  "families"):
        assert metrics[f"{layer}.self_ms"]["value"] > 0, layer
    for name in ("geometry.count_width", "geometry.pareto_in", "ideals.power_exponent_sum",
                 "ideals.new_ideal_points_in", "invariants.seq_entries", "checks.box_points",
                 "cli.rationals", "svgplot.svg_bytes"):
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_memo_across_requests_never_hits(name, cli, tmp_path, monkeypatch):
    """A module-level memo on ordinary_power only reuses powers within a request.

    Every pass runs in a fresh process, so a memo kept across passes is
    impossible; within a pass no two requests build a power of one ideal,
    so a memo kept across requests buys no more than one per request.
    """
    import ghk.ideals

    requests = workloads.generate(name, 6)
    write_files(requests, tmp_path)
    monkeypatch.chdir(tmp_path)
    original, memo, current, reused = ghk.ideals.ordinary_power, {}, [0], []

    def ordinary_power(ideal, n):
        key = (ideal, n)
        if key not in memo:
            memo[key] = (current[0], original(ideal, n))
        elif memo[key][0] != current[0]:
            reused.append(key)
        return memo[key][1]

    for mod in [m for n, m in sys.modules.items() if n == "ghk" or n.startswith("ghk.")]:
        for attr, obj in list(vars(mod).items()):
            if obj is original:
                monkeypatch.setattr(mod, attr, ordinary_power)
    for i, req in enumerate(requests):
        current[0] = i
        assert workloads.check(req, *worker.run_one(cli, req["argv"])[1:], worker.read_svg)
    assert memo and reused == []


def test_missing_function_leaves_its_metrics_out(cli, monkeypatch):
    import ghk
    import ghk.geometry
    import ghk.invariants

    for ns in (ghk, ghk.geometry, ghk.invariants):
        monkeypatch.delattr(ns, "count_lattice_band")
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.run_command(["eghk", "--family", "a:3,1"]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert "geometry.count_width" not in metrics
    assert "geometry.pareto_in" in metrics and "geometry.self_ms" in metrics


def test_run_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tower", "--seed", "1", "--seconds", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (HERE / ".work").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tower", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0 and proc.stdout == ""
