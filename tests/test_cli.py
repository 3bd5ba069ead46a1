import json
import os

import pytest

from qehrhart.cli import main
from qehrhart.ehrhart import compute_record
from qehrhart.jsonio import (RecordCache, record_in, record_out, polytope_in,
                             ratfun_in, ratfun_out)
from qehrhart.qseries import BivarPoly, RatFun2


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

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"vertices\": []}")
        with pytest.raises(SystemExit) as err:
            main(["compute", str(bad)])
        assert err.value.code == 2
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as err:
            main(["compute", str(missing)])
        assert err.value.code == 2

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
