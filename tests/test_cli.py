"""Exit-code contract and report determinism for the qverify CLI."""

import json

import pytest

from qverify import cli, identities, integrals, qcore
from qverify.cli import main, load_param_file
from qverify.identities import get_case, parse_params
from qverify.qcore import SamplingExhausted


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParamFiles:
    def test_flat_toml_subset(self, tmp_path):
        path = write(tmp_path, "p.toml", """
# comment
a = 0.5
b = [0.4, 0.1]
n = 3
name = "x"
""")
        raw = load_param_file(path)
        assert raw["a"] == 0.5
        assert raw["b"] == [0.4, 0.1]
        assert raw["n"] == 3
        assert raw["name"] == "x"

    def test_param_assembly(self, tmp_path):
        case = get_case("watson")
        raw = {"a": 0.5, "b": 0.4, "c": 0.3, "d": 0.2, "e": 0.6, "n": 2}
        p = parse_params(case, raw)
        assert p["n"] == 2 and p["a"] == 0.5 + 0j

    def test_vector_assembly(self):
        case = get_case("lemma-milne")
        raw = {"a": 0.3, "b": 0.8, "c": 0.7, "d": 0.75, "e": 0.65, "n": 1,
               "x1": [0.5, 0.0], "y1": 0.15, "N1": 1}
        p = parse_params(case, raw)
        assert p["x"] == [0.5 + 0j] and p["N"] == [1]

    def test_unknown_key_rejected(self):
        case = get_case("watson")
        with pytest.raises(ValueError, match="unknown"):
            parse_params(case, {"a": 0.5, "b": 0.4, "c": 0.3, "d": 0.2,
                                "e": 0.6, "n": 2, "zz": 1.0})

    def test_missing_key_rejected(self):
        case = get_case("watson")
        with pytest.raises(ValueError, match="missing"):
            parse_params(case, {"a": 0.5})


# points with one free parameter at zero
ZERO_POINTS = {
    "lemma-milne": "a = 0.3\nb = 0.8\nc = 0.7\nd = 0.75\ne = 0.65\nn = 1\n"
                   "x1 = 0.0\ny1 = 0.15\nN1 = 1\n",
    "ramanujan-reciprocity": "a = 0.0\nb = 0.4\n",
    "bailey-6psi6": "a = 0.0\nb = 0.9\nc = 0.8\nd = 0.7\ne = 0.6\n",
}


class TestExitCodes:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bailey-6psi6" in out and len(out.strip().splitlines()) == 20

    def test_check_pass(self, tmp_path, capsys):
        path = write(tmp_path, "pt.toml",
                     "a = 0.5\nb = 0.9\nc = 0.8\nd = 0.7\ne = 0.6\n")
        assert main(["check", "bailey-6psi6", "--params", path, "--q", "0.3"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_check_zero_equals_zero_branch(self, tmp_path):
        path = write(tmp_path, "diag.toml", "a = [0.4, 0.1]\nb = [0.4, 0.1]\n")
        assert main(["check", "ramanujan-reciprocity", "--params", path]) == 0

    def test_check_domain_violation_exit_2(self, tmp_path):
        path = write(tmp_path, "bad.toml",
                     "a = 0.9\nb = 0.1\nc = 0.1\nd = 0.1\ne = 0.1\n")
        assert main(["check", "bailey-6psi6", "--params", path, "--q", "0.5"]) == 2

    def test_check_parse_error_exit_3(self, tmp_path):
        path = write(tmp_path, "broken.toml", "not a toml {{{\n")
        assert main(["check", "watson", "--params", path]) == 3

    def test_check_bad_q_exit_3(self, tmp_path):
        path = write(tmp_path, "pt.toml",
                     "a = 0.5\nb = 0.9\nc = 0.8\nd = 0.7\ne = 0.6\n")
        assert main(["check", "bailey-6psi6", "--params", path, "--q", "1.2"]) == 3

    def test_sweep_bad_q_exit_3(self):
        assert main(["sweep", "--identity", "watson", "--samples", "1", "--q", "1.5"]) == 3

    @pytest.mark.parametrize("argv", [
        ["check", "watson"],  # --params is required
        ["sweep", "--mode", "bogus"],
        ["sweep", "--samples", "x"],
        ["sweep", "--q", "-0.5,0.9"],  # the list is read as a flag
    ])
    def test_usage_error_exit_3(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3

    def test_sweep_bad_tol_exit_3(self):
        assert main(["sweep", "--identity", "watson", "--samples", "1", "--tol", "0"]) == 3

    @pytest.mark.parametrize("value", ["2.5", "true", "[1, 2]", "-1"])
    def test_check_bad_integer_exit_3(self, tmp_path, value):
        # n must be a non-negative TOML integer: no rounding, no bool, no list
        path = write(tmp_path, "w.toml",
                     f"a = 0.5\nb = 0.4\nc = 0.3\nd = 0.2\ne = 0.6\nn = {value}\n")
        assert main(["check", "watson", "--params", path]) == 3

    def test_check_bad_vector_integer_exit_3(self, tmp_path):
        path = write(tmp_path, "m.toml", "a = 0.3\nb = 0.8\nc = 0.7\nd = 0.75\n"
                     "e = 0.65\nn = 1\nx1 = 0.5\ny1 = 0.15\nN1 = 1.5\n")
        assert main(["check", "lemma-milne", "--params", path]) == 3

    @pytest.mark.parametrize("tail, key", [
        ("n = 2\nx1 = 0.5\ny1 = 0.15\nN1 = 1\n", "'x'"),  # one pair of two
        ("n = 1\nx1 = 0.5\ny1 = 0.15\nN1 = -1\n", "'N1'"),
    ])
    def test_check_malformed_vector_names_the_key(self, tmp_path, capsys, tail, key):
        path = write(tmp_path, "m.toml", "a = 0.3\nb = 0.8\nc = 0.7\nd = 0.75\ne = 0.65\n" + tail)
        assert main(["check", "lemma-milne", "--params", path]) == 3
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("case_id", sorted(ZERO_POINTS))
    def test_check_zero_free_parameter_exit_2(self, tmp_path, capsys, case_id):
        # every case divides by its free parameters: a zero is outside the domain
        path = write(tmp_path, "zero.toml", ZERO_POINTS[case_id])
        assert main(["check", case_id, "--params", path]) == 2
        assert "outside convergence domain" in capsys.readouterr().out

    def test_check_unknown_identity_exit_3(self, tmp_path):
        path = write(tmp_path, "x.toml", "a = 0.1\n")
        assert main(["check", "no-such-id", "--params", path]) == 3

    def test_check_json_output(self, tmp_path, capsys):
        path = write(tmp_path, "pt.toml",
                     "a = 0.5\nb = 0.9\nc = 0.8\nd = 0.7\ne = 0.6\n")
        assert main(["check", "bailey-6psi6", "--params", path, "--q", "0.3",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        assert doc["rel_residual"] < 1e-8

    def test_sweep_single_identity(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        rc = main(["sweep", "--identity", "watson", "--samples", "2",
                   "--seed", "3", "--q", "0.5", "--out", out])
        assert rc == 0
        doc = json.load(open(out))
        assert doc["summary"]["watson"]["pass"] == 2
        assert len(doc["reports"]) == 2

    def test_sweep_unknown_identity_exit_3(self):
        assert main(["sweep", "--identity", "bogus", "--samples", "1"]) == 3

    def test_sweep_repeated_identity_exit_3(self):
        assert main(["sweep", "--identity", "watson", "watson", "--samples", "2",
                     "--q", "0.5"]) == 3

    @pytest.mark.parametrize("qs", ["0.5,0.5", "0.5,0.3,0.50", "0.3,.3"])
    def test_sweep_repeated_q_exit_3(self, qs):
        # equal as floats, however written: each repetition would sweep the
        # same cells with the same seeds and count them twice
        assert main(["sweep", "--identity", "watson", "--samples", "1",
                     "--q", qs]) == 3

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_bad_jobs_exit_3(self, jobs):
        assert main(["sweep", "--identity", "watson", "--samples", "1", "--q", "0.5",
                     "--jobs", jobs]) == 3

    def test_sweep_negative_q_list(self, tmp_path):
        # a list that starts with a minus sign must be attached with "=":
        # argparse reads a separate "-0.5,0.9" as an option flag
        out = str(tmp_path / "r.json")
        assert main(["sweep", "--identity", "watson", "--samples", "1",
                     "--q=-0.5,0.9", "--out", out]) == 0
        assert json.load(open(out))["config"]["q"] == [-0.5, 0.9]
        with pytest.raises(SystemExit):
            main(["sweep", "--identity", "watson", "--samples", "1", "--q", "-0.5,0.9"])

    def test_sweep_exit_1_on_fail(self, tmp_path):
        # the multi-variable integral cases fail for N >= 1 (paper defect,
        # see the decisions ledger); a sweep containing them must exit 1
        out = str(tmp_path / "r.json")
        rc = main(["sweep", "--identity", "thm-e-integral", "--samples", "4",
                   "--seed", "1", "--q", "0.5", "--out", out])
        assert rc == 1


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_strip_elapsed(x) for x in obj]
    return obj


def _failed_ids(path):
    return {r["id"] for r in json.load(open(path))["reports"] if r["verdict"] == "fail"}


class TestDeterminism:
    def test_reports_byte_identical_modulo_elapsed(self, tmp_path):
        # thm-e-integral runs the quadrature; its cells with offsets N >= 1
        # fail by design, and then the sweep exits 1
        args = ["sweep", "--identity", "watson", "ma-5var", "thm-e-integral",
                "--samples", "3", "--seed", "42", "--q", "0.3,0.8"]
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        rc = main(args + ["--out", out1])
        assert main(args + ["--out", out2]) == rc
        assert _failed_ids(out1) <= {"thm-e-integral"}
        assert rc == (1 if _failed_ids(out1) else 0)
        d1 = json.dumps(_strip_elapsed(json.load(open(out1))), sort_keys=True)
        d2 = json.dumps(_strip_elapsed(json.load(open(out2))), sort_keys=True)
        assert d1 == d2


class TestSweepCell:
    def test_sampling_exhausted_cell(self, monkeypatch):
        # a slot whose draw finds no admissible point is a skipped cell with
        # the same keys, in the same order, as every other cell
        def exhausted(case_id, seed, ctx, mode=None):
            raise SamplingExhausted("no admissible point")

        drawn = cli.run_sweep_cell("watson", 0, 5, 0.5, None, "complex")
        monkeypatch.setattr(cli, "sample", exhausted)
        cell = cli.run_sweep_cell("watson", 1, 5, 0.5, None, "complex")
        assert list(cell) == list(drawn)
        assert cell == {
            "id": "watson", "sample_seed": 1005, "params": {},
            "lhs": [0.0, 0.0], "rhs": [0.0, 0.0],
            "abs_residual": 0.0, "rel_residual": 0.0, "verdict": "skipped",
            "reason": "sampling: no admissible point", "elapsed": 0.0,
            "q": 0.5, "slot": 1,
        }


@pytest.fixture
def fake_pools(monkeypatch):
    """ProcessPoolExecutor replaced by an in-process fake; returns the pools made,
    each with the sizes of the chunks of cells that it was handed."""
    import concurrent.futures

    made = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.sizes = None
            made.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            self.sizes = [len(chunk) for chunk in chunks]
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return made


class TestRunSweep:
    def _sweep(self, samples, q, jobs):
        config = cli.SweepConfig(identities=("watson",), samples=samples, seed=5,
                                 q_values=q, jobs=jobs)
        return cli.run_sweep(config)

    def test_workers_capped_at_cells(self, fake_pools):
        doc, rc = self._sweep(samples=1, q=(0.3, 0.5, 0.8), jobs=8)
        assert rc == 0 and len(doc["reports"]) == 3
        assert [(p.max_workers, p.sizes) for p in fake_pools] == [(3, [1, 1, 1])]

    def test_chunks_sized_from_plan(self, fake_pools):
        # 67 cells over 2 workers: 67 // (16 * 2) = 2 cells a chunk, the last one left over
        doc, rc = self._sweep(samples=67, q=(0.5,), jobs=2)
        assert rc == 0 and len(doc["reports"]) == 67
        assert [(p.max_workers, p.sizes) for p in fake_pools] == [(2, [2] * 33 + [1])]

    @pytest.mark.parametrize("identities, jobs", [(("watson",), 4), ((), 2)])
    def test_one_cell_or_none_runs_serially(self, fake_pools, identities, jobs):
        config = cli.SweepConfig(identities=identities, samples=1, q_values=(0.5,),
                                 jobs=jobs)
        doc, rc = cli.run_sweep(config)
        assert rc == 0 and len(doc["reports"]) == len(identities)
        assert fake_pools == []

    def test_each_q_in_one_stretch(self, monkeypatch):
        # the memos per q hold the last qcore._TABLE_QS q; a sweep over more q
        # still computes the integrand's unit row once per q and node set
        qs = tuple(0.1 * k for k in range(1, qcore._TABLE_QS + 3))
        monkeypatch.setattr(integrals, "_UNIT_ROWS", {})
        computed = []

        def counted(x, factors):
            if factors[3].size == 1:  # the unit row; an integrand has 4 lam rows or more
                computed.append((factors[0].tobytes(), x.shape))  # the q^k coefficients name q
            return qcore._h_products(x, factors)

        monkeypatch.setattr(integrals, "_h_products", counted)
        config = cli.SweepConfig(identities=("thm-e-integral",), samples=3, seed=5, q_values=qs)
        cli.run_sweep(config)
        assert len(computed) == len(set(computed))
        assert len({q for q, _ in computed}) == len(qs)

    @pytest.mark.parametrize("mode", ["complex", "real"])
    def test_prefetched_columns_equal_lone_cells(self, mode):
        # run_sweep computes each column's draws and closed-form products ahead; a
        # lone run_sweep_cell has no prefetch, and its report is the same
        ids = tuple(cli.case_ids())
        config = cli.SweepConfig(identities=ids, samples=3, seed=13, mode=mode, q_values=(0.3, 0.8))
        doc, _ = cli.run_sweep(config)
        lone = [cli.run_sweep_cell(cid, slot, 13, q, None, mode)
                for cid in sorted(ids) for slot in range(3) for q in (0.3, 0.8)]
        assert json.dumps(_strip_elapsed(doc["reports"])) == json.dumps(_strip_elapsed(lone))
        assert qcore._prefetch is None and not identities._DRAWN  # nothing outlives a column

    def test_pool_chunks_that_split_columns_equal_serial(self, tmp_path):
        # 66 cells over 2 workers: chunks of 2, so chunk 17 holds the last bailey
        # slot and the first ramanujan slot, and each column spans many chunks
        args = ["sweep", "--identity", "bailey-6psi6", "ramanujan-reciprocity",
                "--samples", "33", "--seed", "17", "--q", "0.5"]
        out1, out2 = str(tmp_path / "serial.json"), str(tmp_path / "pool.json")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2, "--jobs", "2"]) == 0
        assert (json.dumps(_strip_elapsed(json.load(open(out1))))
                == json.dumps(_strip_elapsed(json.load(open(out2)))))

    def test_elapsed_ignores_wall_clock_steps(self, monkeypatch):
        # the wall clock stepping back (an NTP adjustment) must not give a
        # negative sweep time
        clock = iter(range(10**9, 0, -3600))
        monkeypatch.setattr(cli.time, "time", lambda: float(next(clock)))
        doc, _ = self._sweep(samples=1, q=(0.5,), jobs=1)
        assert doc["elapsed"] >= 0.0


class TestEnvOverride:
    @pytest.mark.parametrize("args, jobs", [
        # the original case: three identities, 4 slots, one q
        (["--identity", "watson", "bailey-6psi6", "thm-e-integral",
          "--samples", "4", "--seed", "9", "--q", "0.5"], "2"),
        # chunks of 2 cells, and 67 cells is not a multiple of 2
        (["--identity", "watson", "--samples", "67", "--seed", "4", "--q", "0.5"], "2"),
        # fewer cells than --jobs
        (["--identity", "watson", "--samples", "2", "--seed", "6", "--q", "0.5"], "3"),
    ], ids=["three-ids", "uneven-chunks", "fewer-cells-than-jobs"])
    def test_worker_pool_matches_serial(self, tmp_path, args, jobs):
        args = ["sweep", *args]
        out1 = str(tmp_path / "serial.json")
        out2 = str(tmp_path / "pool.json")
        rc = main(args + ["--out", out1, "--jobs", "1"])
        assert main(args + ["--out", out2, "--jobs", jobs]) == rc
        assert _failed_ids(out1) <= {"thm-e-integral"}
        assert rc == (1 if _failed_ids(out1) else 0)
        d1 = json.dumps(_strip_elapsed(json.load(open(out1))), sort_keys=True)
        d2 = json.dumps(_strip_elapsed(json.load(open(out2))), sort_keys=True)
        assert d1 == d2
