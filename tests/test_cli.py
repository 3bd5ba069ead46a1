import json
import os
import random
import re
import subprocess
import sys

import pytest

import qehrhart
from qehrhart.cli import COMMANDS, main, parser
from qehrhart.ehrhart import compute_record
from qehrhart.jsonio import (RecordCache, int_in, record_in, record_out,
                             polytope_in, ratfun_in, ratfun_out)
from qehrhart.qseries import BivarPoly, RatFun2


# Each subcommand accepts exactly the flags its handler reads, so no flag is
# accepted and then ignored.  compute and guess read no --jobs but accept it,
# because the benchmark passes `--jobs 1` to both.
FLAGS = {
    "compute": {"--max-t", "--cache", "--out", "--jobs"},
    "interior": {"--max-t", "--cache", "--out"},
    "guess": {"--max-t", "--den-b-max", "--den-a-max", "--nu-max", "--cache",
              "--out", "--jobs"},
    "table": {"--max-t", "--jobs", "--verbose"},
    "verify": {"--trials", "--seed", "--jobs", "--prime", "--max-t",
               "--max-m"},
    "equivariant": {"--max-m", "--out"},
    "poset": {"--point", "--out"},
    "modp": {"--prime", "--trials", "--seed", "--jobs"},
}

# inputs that must exit 2 with one `error:` line; upper-case words are files
BAD_INPUTS = [
    ["compute", "BAD"],
    ["compute", "MISSING"],
    ["compute", "SQUARE", "--max-t", "-1"],
    ["compute", "SQUARE", "--max-t", "x"],
    ["guess", "SQUARE", "--max-t", "-2"],
    ["table", "fig1", "--max-t", "-1"],
    ["verify", "closure", "--trials", "-1"],
    ["verify", "chainorder", "--max-m", "-1"],
    ["equivariant", "SQUARE", "GROUP", "--max-m", "-1"],
    ["modp", "closure", "--prime", "4"],
    ["verify", "modp", "--prime", "4"],
    ["modp", "closure", "--prime", "1", "--trials", "3"],
    ["modp", "beta", "0", "2"],
    ["modp", "beta", "2", "0"],
    ["modp", "beta", "2", "2", "--prime", "2147483659"],
    ["modp", "beta", "2", "2", "--prime", "2305843009213693951"],
    ["equivariant", "SQUARE", "SHEAR"],
    ["table", "fig1", "--cache", "D"],
    ["compute", "SQUARE", "--trials", "3"],
    ["guess", "SQUARE", "--den-b-max", "-1"],
    ["guess", "SQUARE", "--den-b-max", "0"],
    ["guess", "SQUARE", "--nu-max", "0"],
    ["guess", "SQUARE", "--den-a-max", "-1"],
    ["table", "fig1", "--jobs", "0"],
    ["verify", "closure", "--jobs", "-1"],
    ["modp", "closure", "--jobs", "0"],
    ["compute", "FLOATV"],
    ["compute", "BOOLV"],
    ["compute", "STRV"],
    ["equivariant", "SQUARE", "FLOATG"],
    ["poset", "order", "FLOATN"],
]


@pytest.fixture
def square_file(tmp_path):
    f = tmp_path / "square.json"
    f.write_text(json.dumps(
        {"name": "unit-square", "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
    return str(f)


@pytest.fixture
def poset_file(tmp_path):
    f = tmp_path / "poset.json"
    f.write_text(json.dumps({"n": 2, "covers": [[0, 1]]}))
    return str(f)


class TestJsonRoundTrip:
    def test_record(self, unit_square):
        rec = compute_record(unit_square, 3, with_guess=True)
        back = record_in(record_out(rec))
        assert back.iq == rec.iq
        assert back.iq_interior == rec.iq_interior
        assert back.guess_E == rec.guess_E
        assert back.T == rec.T

    def test_big_integers(self):
        big = 2 ** 80
        R = RatFun2(BivarPoly({(0, 0): big}), [(1, 0)])
        obj = ratfun_out(R)
        assert isinstance(obj["num"][0][2], str)
        assert ratfun_in(obj) == R

    def test_vertex_order_preserved(self):
        obj = {"name": "p", "vertices": [[1, 1], [0, 0], [1, 0], [0, 1]]}
        P = polytope_in(obj)
        assert P.vertices == ((1, 1), (0, 0), (1, 0), (0, 1))


class TestCache:
    def test_replay_equals_recompute(self, tmp_path, unit_square):
        cache = RecordCache(str(tmp_path))
        rec = compute_record(unit_square, 4)
        key = cache.key(unit_square, 4)
        cache.store(key, rec)
        again = cache.load(key)
        assert again.iq == rec.iq and again.iq_interior == rec.iq_interior

    def test_key_depends_on_inputs(self, tmp_path, unit_square, case_triangle):
        cache = RecordCache(str(tmp_path))
        assert cache.key(unit_square, 4) != cache.key(unit_square, 5)
        assert cache.key(unit_square, 4) != cache.key(case_triangle, 4)

    def test_disabled_without_dir(self, unit_square, monkeypatch):
        monkeypatch.delenv(RecordCache.ENV_VAR, raising=False)
        cache = RecordCache(None)
        assert cache.load(cache.key(unit_square, 3)) is None


class TestIntegerInput:
    @pytest.mark.parametrize("value", [1.5, 1.0, True, False, None, "1.5",
                                       "1e3", " 12", [1], {}])
    def test_int_in_refuses(self, value):
        with pytest.raises(ValueError):
            int_in(value)

    def test_int_in_reads_ints_and_decimal_strings(self):
        assert [int_in(v) for v in (0, -7, "12", "-3", str(2 ** 80))] == [
            0, -7, 12, -3, 2 ** 80]


class TestCommands:
    def test_compute(self, square_file, capsys):
        assert main(["compute", square_file, "--max-t", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["iq"][1] == [1, 2, 1]
        assert obj["iqInterior"][2] == [1]

    def test_compute_deterministic(self, square_file, capsys):
        main(["compute", square_file, "--max-t", "3"])
        first = capsys.readouterr().out
        main(["compute", square_file, "--max-t", "3"])
        assert capsys.readouterr().out == first

    def test_compute_uses_cache(self, square_file, tmp_path, capsys):
        cachedir = str(tmp_path / "cache")
        assert main(["compute", square_file, "--max-t", "3",
                     "--cache", cachedir]) == 0
        first = capsys.readouterr().out
        assert os.listdir(cachedir)
        assert main(["compute", square_file, "--max-t", "3",
                     "--cache", cachedir]) == 0
        assert capsys.readouterr().out == first

    def test_compute_independent_of_cache_history(self, square_file, tmp_path,
                                                  capsys):
        main(["compute", square_file, "--max-t", "10"])
        fresh = capsys.readouterr().out
        cachedir = str(tmp_path / "cache")
        # a guess stored first, with no bounds, must not leak into compute
        assert main(["guess", square_file, "--max-t", "10",
                     "--cache", cachedir]) == 0
        assert "guess" in json.loads(capsys.readouterr().out)
        assert main(["compute", square_file, "--max-t", "10",
                     "--cache", cachedir]) == 0
        assert capsys.readouterr().out == fresh
        # a cache hit for the same vertices keeps the input file's name
        renamed = tmp_path / "renamed.json"
        with open(square_file) as fh:
            obj = json.load(fh)
        renamed.write_text(json.dumps(dict(obj, name="renamed-square")))
        assert main(["compute", str(renamed), "--max-t", "10",
                     "--cache", cachedir]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["polytope"]["name"] == "renamed-square"
        assert out == dict(json.loads(fresh),
                           polytope=dict(obj, name="renamed-square"))

    @pytest.mark.parametrize("corrupt", [
        lambda rec: [1, 2],
        lambda rec: dict(rec, verification="none"),
        lambda rec: dict(rec, iq=None)], ids=["list", "string-level", "no-iq"])
    def test_corrupt_cache_entry_is_a_miss(self, corrupt, square_file,
                                           tmp_path, capsys):
        argv = ["compute", square_file, "--max-t", "3"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        cachedir = tmp_path / "cache"
        argv += ["--cache", str(cachedir)]
        assert main(argv) == 0
        capsys.readouterr()
        [entry] = cachedir.iterdir()
        good = entry.read_text()
        entry.write_text(json.dumps(corrupt(json.loads(good))))
        assert main(argv) == 0
        assert capsys.readouterr() == cold
        assert entry.read_text() == good

    @pytest.mark.parametrize("factor", [[1, -1], [0, 1]],
                             ids=["negative-q", "constant-in-t"])
    def test_guess_entry_with_bad_factor_is_a_miss(self, factor, square_file,
                                                   tmp_path, capsys):
        # such a form would fail its expansion, or never have one
        argv = ["guess", square_file, "--max-t", "6"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        cachedir = tmp_path / "cache"
        argv += ["--cache", str(cachedir)]
        assert main(argv) == 0
        capsys.readouterr()
        [entry] = cachedir.iterdir()
        good = entry.read_text()
        rec = json.loads(good)
        rec["guess"]["den"][0] = factor
        entry.write_text(json.dumps(rec))
        assert main(argv) == 0
        assert capsys.readouterr() == cold
        assert entry.read_text() == good

    def test_guess_uses_cache(self, square_file, tmp_path, capsys,
                              monkeypatch):
        cachedir = str(tmp_path / "cache")
        argv = ["guess", square_file, "--max-t", "6", "--cache", cachedir]
        assert main(argv) == 0
        first = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("guess recomputed a cached record")

        monkeypatch.setattr("qehrhart.cli.compute_record", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("argv", BAD_INPUTS, ids="_".join)
    def test_parse_error_exit_two(self, argv, square_file, tmp_path, capsys):
        files = {"BAD": tmp_path / "bad.json", "SQUARE": square_file,
                 "MISSING": tmp_path / "missing.json",
                 "GROUP": tmp_path / "group.json",
                 "SHEAR": tmp_path / "shear.json"}
        files["BAD"].write_text("{\"vertices\": []}")
        files["GROUP"].write_text(json.dumps({"elements": [
            {"id": "swap", "matrix": [[0, 1], [1, 0]]}]}))
        files["SHEAR"].write_text(json.dumps({"elements": [
            {"id": "shear", "matrix": [[1, 1], [0, 1]]}]}))
        for name, obj in {
                "FLOATV": {"vertices": [[0, 0], [1.5, 0], [0, 1]]},
                "BOOLV": {"vertices": [[0, 0], [True, 0], [0, 1]]},
                "STRV": {"vertices": [[0, 0], "12", [0, 1]]},
                "FLOATG": {"elements": [{"id": "swap",
                                         "matrix": [[0, 1.7], [1, 0]]}]},
                "FLOATN": {"n": 2.5, "covers": [[0, 1]]}}.items():
            files[name] = tmp_path / (name.lower() + ".json")
            files[name].write_text(json.dumps(obj))
        try:
            code = main([str(files.get(a, a)) for a in argv])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1

    def test_parser_built_once(self, capsys):
        # one parser serves every call in a process, and a failed or help
        # call leaves nothing behind for the next one
        assert parser() is parser()
        with pytest.raises(SystemExit) as err:
            main(["modp", "beta", "0", "2"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["modp", "--help"])
        assert err.value.code == 0
        capsys.readouterr()
        assert main(["modp", "beta", "2", "2"]) == 0
        here = capsys.readouterr()
        src = os.path.dirname(os.path.dirname(qehrhart.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        fresh = subprocess.run(
            [sys.executable, "-m", "qehrhart.cli", "modp", "beta", "2", "2"],
            capture_output=True, text=True, env=env)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == (
            0, here.out, here.err)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_lists_only_flags_read(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags - {"--help"} == FLAGS[command]

    def test_guess(self, square_file, capsys):
        assert main(["guess", square_file, "--max-t", "10"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["guess"]["den"] == [[1, 0], [1, 1], [1, 2]]
        assert obj["verification"]["level"] == "truncation(10)"

    def test_interior(self, square_file, capsys):
        assert main(["interior", square_file, "--max-t", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert "iq" not in obj and obj["iqInterior"][2] == [1]

    def test_table_fig1(self, capsys):
        assert main(["table", "fig1", "--max-t", "6"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_table_jobs(self, capsys):
        assert main(["table", "fig1", "--max-t", "5", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_poset_commands(self, poset_file, capsys):
        assert main(["poset", "chain", poset_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert sorted(obj["vertices"]) == [[0, 0], [0, 1], [1, 0]]
        assert main(["poset", "order", poset_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert sorted(obj["vertices"]) == [[0, 0], [0, 1], [1, 1]]
        assert main(["poset", "transfer", poset_file, "--point", "1,1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["image"] == [1, 0]

    def test_modp_beta(self, capsys):
        assert main(["modp", "beta", "2", "2", "--prime", "2"]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert main(["modp", "beta", "3", "4"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_modp_closure(self, capsys):
        assert main(["modp", "closure", "--prime", "3", "--trials", "5"]) == 0

    def test_equivariant(self, square_file, tmp_path, capsys):
        gf = tmp_path / "group.json"
        gf.write_text(json.dumps({"elements": [
            {"id": "e", "matrix": [[1, 0], [0, 1]]},
            {"id": "swap", "matrix": [[0, 1], [1, 0]]}]}))
        assert main(["equivariant", square_file, str(gf), "--max-m", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["swap"][1] == [1, 0, 1]

    def test_dense_group_matrix_exits_two(self, square_file, tmp_path,
                                          capsys):
        # the unimodularity check runs before any size check, so it must
        # stay polynomial in the matrix size
        rng = random.Random(3)
        gf = tmp_path / "dense.json"
        gf.write_text(json.dumps({"elements": [{"id": "dense", "matrix": [
            [rng.randint(1, 9) for _ in range(12)] for _ in range(12)]}]}))
        assert main(["equivariant", square_file, str(gf)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad group file")

    def test_verify_suites_quick(self, capsys):
        assert main(["verify", "closure", "--trials", "5"]) == 0
        assert main(["verify", "modp", "--trials", "3"]) == 0
        assert main(["verify", "equivariant"]) == 0

    def test_out_flag(self, square_file, tmp_path, capsys):
        target = tmp_path / "record.json"
        assert main(["compute", square_file, "--max-t", "2",
                     "--out", str(target)]) == 0
        obj = json.loads(target.read_text())
        assert obj["T"] == 2


class TestTableStatuses:
    def test_extradata_reports_unknown_and_refuted(self, capsys):
        assert main(["table", "extradata", "--max-t", "3"]) == 0
        out = capsys.readouterr().out
        assert "unknown" in out
        assert "refuted-guess" in out
        assert "truncation-ok" in out
