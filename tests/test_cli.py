"""End-to-end command-line runs in a temporary directory."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from curvecones import acceptance as acc, bundle as bd, cli
from curvecones import cone as cn, curve as cv, net as nt, spanlab as sl
from curvecones.cli import main
from curvecones.errors import (DegenerateInput, RankDeficientW,
                               VerificationFailed)


@pytest.fixture(scope="module")
def curve_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "c4.json"
    assert main(["gen-curve", "--genus", "4", "--prime", "1000003",
                 "--seed", "1", "--out", str(path)]) == 0
    return str(path)


class TestCommands:
    def test_gen_curve_deterministic(self, tmp_path, curve_file):
        other = tmp_path / "again.json"
        assert main(["gen-curve", "--genus", "4", "--prime", "1000003",
                     "--seed", "1", "--out", str(other)]) == 0
        assert other.read_bytes() == open(curve_file, "rb").read()

    def test_ideal_dimension(self, tmp_path, curve_file, capsys):
        out = tmp_path / "i3.json"
        assert main(["ideal", "--curve", curve_file, "--degree", "3",
                     "--out", str(out)]) == 0
        assert "dim I(3) = 5" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["dim"] == 5
        assert len(payload["basis"]) == 5

    def test_reconstruct_writes_certificate(self, tmp_path, curve_file):
        out = tmp_path / "cone.json"
        assert main(["reconstruct", "--curve", curve_file,
                     "--w-seed", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["certificate"]["contains_curve"]
        assert payload["certificate"]["solution_dim"] == 1
        assert len(payload["W"]) == 3

    def test_hessian_csv(self, tmp_path, curve_file):
        out = tmp_path / "sweep.csv"
        assert main(["hessian", "--curve", curve_file, "--w-seed", "0",
                     "--sweep", "10", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "u0,u1,u2,gamma_u,det_gram,kernel_match"
        assert len(lines) >= 11

    def test_hessian_sweep_bounds(self, tmp_path, curve_file, capsys):
        out = tmp_path / "negative.csv"
        assert main(["hessian", "--curve", curve_file, "--sweep", "-2",
                     "--out", str(out)]) == 2
        assert "--sweep" in capsys.readouterr().err
        assert not out.exists()
        # N rows: N - N//2 on the plane image and N//2 off it, each kind
        # from its own draws, so a larger N extends the rows of a smaller
        rows = {}
        for sweep in (0, 1, 7):
            out = tmp_path / f"sweep{sweep}.csv"
            assert main(["hessian", "--curve", curve_file, "--sweep",
                         str(sweep), "--out", str(out)]) == 0
            rows[sweep] = out.read_text().strip().split("\n")[1:]
            assert len(rows[sweep]) == sweep
        assert rows[7][:1] == rows[1]
        assert len([r for r in rows[7] if r.endswith(",")]) == 3

    def test_hessian_sweep_limit(self, tmp_path, curve_file, capsys,
                                 monkeypatch):
        # N - N//2 rows are fibers over the 140 panel points: N = 280 is
        # the largest sweep, and it writes 280 rows
        out = tmp_path / "long.csv"
        assert main(["hessian", "--curve", curve_file, "--sweep", "281",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--sweep must be at most 280" in err and "got 281" in err
        assert not out.exists()
        assert main(["hessian", "--curve", curve_file, "--sweep", "280",
                     "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 281
        # when panel points give no fiber, the on-image draws run out:
        # exit 4 and no CSV, not a short one
        real = bd.fiber_quadric

        def odd_only(ctx, net_obj, cone, us):
            return [RankDeficientW("injected") if int(u.sum()) % 2 == 0
                    else fq for u, fq in zip(np.asarray(us) % ctx.p,
                                             real(ctx, net_obj, cone, us))]

        monkeypatch.setattr(bd, "fiber_quadric", odd_only)
        short = tmp_path / "short.csv"
        assert main(["hessian", "--curve", curve_file, "--sweep", "280",
                     "--out", str(short)]) == 4
        assert "on-image fibers: no usable draw in 140 attempts" \
            in capsys.readouterr().err
        assert not short.exists()

    def test_verify_quick_and_deterministic(self, tmp_path, curve_file):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert main(["verify", "--curve", curve_file, "--quick",
                     "--out", str(r1)]) == 0
        assert main(["verify", "--curve", curve_file, "--quick",
                     "--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        payload = json.loads(r1.read_text())
        assert payload["ok"] is True
        assert payload["version"]

    def test_spans_config_validation(self, tmp_path, curve_file):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"sample_count": 5, "bogus": 1}')
        assert main(["spans", "--curve", curve_file,
                     "--config", str(bad)]) == 2

    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"),
                                            ("7", "int")])
    def test_spans_config_not_an_object(self, tmp_path, curve_file, capsys,
                                        text, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["spans", "--curve", curve_file,
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "spans config must hold a JSON object" in err and kind in err

    def test_spans_config_read_before_the_curve(self, tmp_path, capsys,
                                                monkeypatch):
        # the config names its fault; the missing curve file is not read
        loads = []
        monkeypatch.setattr(cli, "_load_context", loads.append)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        assert main(["spans", "--curve", str(tmp_path / "missing.json"),
                     "--config", str(cfg)]) == 2
        assert "unknown config field 'bogus'" in capsys.readouterr().err
        assert loads == []

    def test_spans_config_unknown_key_named_first(self, tmp_path, capsys):
        # the unknown key is named even after a bad value of a known one
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": -1, "bogus": 1}')
        assert main(["spans", "--curve", str(tmp_path / "missing.json"),
                     "--config", str(cfg)]) == 2
        assert "unknown config field 'bogus'" in capsys.readouterr().err

    def test_spans_config_boolean_rejected(self, tmp_path, curve_file,
                                           capsys):
        # JSON true is not the integer 1, although Python's bool is an int
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": true}')
        out = tmp_path / "spans.json"
        assert main(["spans", "--curve", curve_file, "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "config field 'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_errors(self, tmp_path, curve_file, capsys):
        # the --genus choices come from curve.MODELS, read by the parser
        assert main(["gen-curve", "--genus", "6", "--prime", "1000003",
                     "--seed", "1", "--out", str(tmp_path / "x.json")]) == 2
        assert "argument --genus: invalid choice: 6" \
            in capsys.readouterr().err
        assert main(["ideal", "--curve", curve_file, "--degree", "9"]) == 2
        assert main(["ideal", "--curve", str(tmp_path / "missing.json"),
                     "--degree", "2"]) == 2

    def test_negative_seed_rejected(self, tmp_path, curve_file, capsys):
        # the suite config is checked before any criterion runs
        out = tmp_path / "r.json"
        assert main(["verify", "--curve", curve_file, "--quick",
                     "--seed", "-1", "--out", str(out)]) == 2
        assert "config field 'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected_before_the_curve_loads(
            self, tmp_path, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "_load_context", loads.append)
        assert main(["verify", "--curve", str(tmp_path / "missing.json"),
                     "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "config field 'seed'" in err and "missing.json" not in err
        assert loads == []

    def test_bad_degree_rejected_before_the_curve_loads(self, tmp_path,
                                                        capsys):
        # the parser names the degree; the missing curve file is not read
        assert main(["ideal", "--curve", str(tmp_path / "missing.json"),
                     "--degree", "9"]) == 2
        err = capsys.readouterr().err
        assert "argument --degree: invalid choice: 9" in err
        assert "missing.json" not in err

    def test_second_prime(self, tmp_path):
        # the verified statements do not depend on the prime: the same seed
        # regenerated at another admissible prime passes every criterion
        curve = tmp_path / "c4-1048573.json"
        report = tmp_path / "r.json"
        assert main(["gen-curve", "--genus", "4", "--prime", "1048573",
                     "--seed", "1", "--out", str(curve)]) == 0
        assert main(["verify", "--curve", str(curve), "--quick",
                     "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["curve"]["prime"] == 1048573
        assert payload["ok"] is True
        assert all(c["ok"] for c in payload["criteria"])

    def test_composite_prime_rejected(self, tmp_path, capsys):
        # 1004653 = 13 * 109 * 709 passes a base-2 Fermat test
        assert main(["gen-curve", "--genus", "4", "--prime", "1004653",
                     "--seed", "1", "--out", str(tmp_path / "x.json")]) == 2
        assert "1004653" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
# the engine modules a fresh process holds after cli.main has run each
# command: a command compiles only what it runs
IMPORT_SETS = {
    "gen-curve": ["algebra", "cli", "curve", "errors", "monomials", "rng"],
    "ideal": ["algebra", "canring", "cli", "curve", "errors", "monomials",
              "rng"],
    "reconstruct": ["algebra", "canring", "cli", "cone", "curve", "errors",
                    "fibers", "monomials", "net", "pencil", "rng"],
    "spans": ["algebra", "canring", "cli", "cone", "curve", "errors",
              "fibers", "monomials", "net", "pencil", "rng", "spanlab"],
    "hessian": ["algebra", "bundle", "canring", "cli", "cone", "curve",
                "errors", "fibers", "monomials", "net", "pencil", "rng"],
    "verify": ["acceptance", "algebra", "bundle", "canring", "cli", "cone",
               "curve", "errors", "fibers", "monomials", "net", "pencil",
               "rng", "spanlab"],
}


class TestImportSets:
    ARGS = {
        "gen-curve": ["--genus", "4", "--seed", "1", "--out", "c.json"],
        "ideal": ["--degree", "3", "--out", "i.json"],
        "reconstruct": ["--out", "r.json"],
        "spans": ["--config", "cfg.json", "--out", "s.json"],
        "hessian": ["--sweep", "2", "--out", "h.csv"],
        "verify": ["--quick"],
    }

    @pytest.mark.parametrize("command", sorted(IMPORT_SETS))
    def test_command_loads_only_its_modules(self, command, curve_file,
                                            tmp_path):
        (tmp_path / "cfg.json").write_text(
            '{"sample_count": 6, "off_curve": 20}')
        args = [command, *self.ARGS[command]]
        if command != "gen-curve":
            args[1:1] = ["--curve", curve_file]
        # numpy.ma stays out too: `net.plane_points` asks np.unique for the
        # inverse to keep it off the hash path that imports numpy.ma
        script = ("import json, sys\n"
                  "from curvecones import cli\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "print('numpy.ma' in sys.modules)\n"
                  "print(json.dumps(sorted(m[11:] for m in sys.modules\n"
                  "                        if m.startswith('curvecones.'))))\n"
                  "sys.exit(code)\n")
        env = {**os.environ, "PYTHONPATH": SRC}
        run = subprocess.run([sys.executable, "-c", script, *args],
                             cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        *_, masked, loaded = run.stdout.splitlines()
        assert json.loads(loaded) == IMPORT_SETS[command]
        assert masked == "False"

    def test_verify_loads_every_module(self):
        engine = sorted(f[:-3] for f in os.listdir(
            os.path.join(SRC, "curvecones"))
            if f.endswith(".py") and f != "__init__.py")
        assert len(engine) == 14
        assert IMPORT_SETS["verify"] == engine


class TestCurveFileValidation:
    """A damaged curve file is a configuration error (exit 2) that names
    the fault, not a verification failure."""

    @staticmethod
    def damaged(tmp_path, curve_file, edit):
        data = json.loads(open(curve_file).read())
        edit(data)
        path = tmp_path / "damaged.json"
        path.write_text(json.dumps(data))
        return str(path)

    def verify_quick(self, path, capsys):
        code = main(["verify", "--curve", path, "--quick"])
        return code, capsys.readouterr().err

    def test_composite_prime(self, tmp_path, curve_file, capsys):
        path = self.damaged(tmp_path, curve_file,
                            lambda d: d.update(prime=1004653))
        code, err = self.verify_quick(path, capsys)
        assert code == 2
        assert "'prime'" in err and "1004653" in err

    def test_prime_below_floor(self, tmp_path, curve_file, capsys):
        # 999983 is prime but below the floor gen-curve keeps; the file
        # is refused for its prime, not for its points
        path = self.damaged(tmp_path, curve_file,
                            lambda d: d.update(prime=999983))
        code, err = self.verify_quick(path, capsys)
        assert code == 2
        assert "'prime'" in err and "999983" in err

    def test_generator_degree(self, tmp_path, curve_file, capsys):
        path = self.damaged(tmp_path, curve_file,
                            lambda d: d["generators"].reverse())
        code, err = self.verify_quick(path, capsys)
        assert code == 2
        assert "'generators'" in err

    @pytest.mark.parametrize("edit, fault", [
        (lambda pair: pair.__setitem__(1, pair[1] + 0.5), "coefficient"),
        (lambda pair: pair.__setitem__(1, str(pair[1])), "coefficient"),
        (lambda pair: pair.__setitem__(1, True), "coefficient"),
        (lambda pair: pair[0].__setitem__(0, float(pair[0][0])),
         "exponents"),
    ], ids=["fractional-coefficient", "string-coefficient",
            "boolean-coefficient", "fractional-exponent"])
    def test_mistyped_generator_pair(self, tmp_path, curve_file, capsys,
                                     edit, fault):
        # int() reads 246312.5 and "246312" as 246312, and a float exponent
        # indexes like an int: a lenient reader would load the curve as if
        # nothing were wrong
        code, err = self.verify_quick(self.damaged(
            tmp_path, curve_file, lambda d: edit(d["generators"][1][2])),
            capsys)
        assert code == 2
        assert f"generator 1, pair 2: {fault}" in err

    def test_repeated_monomial(self, tmp_path, curve_file, capsys):
        # the last pair of a monomial would overwrite the first, and the
        # points would be blamed for the changed curve
        def repeat(data):
            pairs = data["generators"][0]
            exponents, c = pairs[0]
            pairs.append([list(exponents), (c + 1) % data["prime"]])
        data = json.loads(open(curve_file).read())
        last = len(data["generators"][0])
        code, err = self.verify_quick(
            self.damaged(tmp_path, curve_file, repeat), capsys)
        assert code == 2
        assert f"generator 0, pair {last} repeats the monomial of pair 0" \
            in err

    def test_point_off_curve(self, tmp_path, curve_file, capsys):
        def move(data):
            data["points"][5][3] = (data["points"][5][3] + 1) % data["prime"]
        code, err = self.verify_quick(
            self.damaged(tmp_path, curve_file, move), capsys)
        assert code == 2
        assert "point 5 is not on the curve" in err

    @pytest.mark.parametrize("edit, named", [
        (lambda d: d.update(points=None), "field 'points'"),
        (lambda d: d["points"].__setitem__(0, None), "point 0"),
        (lambda d: d.update(generators=None), "field 'generators'"),
        (lambda d: d.update(genus=None), "field 'genus'"),
    ], ids=["points-null", "point-null", "generators-null", "genus-null"])
    def test_mistyped_field(self, tmp_path, curve_file, capsys, edit, named):
        code, err = self.verify_quick(
            self.damaged(tmp_path, curve_file, edit), capsys)
        assert code == 2
        assert named in err

    @pytest.mark.parametrize("command", [
        ["ideal", "--degree", "2"], ["reconstruct"], ["spans"], ["hessian"],
        ["verify", "--quick"]], ids=lambda c: c[0])
    @pytest.mark.parametrize("text, kind", [("[]", "list"), ("7", "int")])
    def test_not_an_object(self, tmp_path, capsys, command, text, kind):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main([command[0], "--curve", str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert "curve file must hold a JSON object" in err and kind in err

    def test_boolean_seed(self, tmp_path, curve_file, capsys):
        # a seed of true would run with the streams of the seed "True"
        code, err = self.verify_quick(self.damaged(
            tmp_path, curve_file, lambda d: d.update(seed=True)), capsys)
        assert code == 2
        assert "field 'seed'" in err and "bool" in err

    def test_boolean_coordinate(self, tmp_path, curve_file, capsys):
        # true in place of a leading coordinate 1 would read as 1
        def lead_true(data):
            q = data["points"][6]
            q[next(i for i, v in enumerate(q) if v)] = True
        code, err = self.verify_quick(
            self.damaged(tmp_path, curve_file, lead_true), capsys)
        assert code == 2
        assert "point 6 is not a list of 4 integer coordinates" in err

    def test_point_not_normalized(self, tmp_path, curve_file, capsys):
        def scale(data):
            p = data["prime"]
            data["points"][7] = [2 * v % p for v in data["points"][7]]
        code, err = self.verify_quick(
            self.damaged(tmp_path, curve_file, scale), capsys)
        assert code == 2
        assert "point 7 is not normalized" in err

    def test_coordinate_beyond_int64(self, tmp_path, curve_file, capsys):
        def widen(data):
            data["points"][3] = [1, 10**30, 0, 0]
        code, err = self.verify_quick(
            self.damaged(tmp_path, curve_file, widen), capsys)
        assert code == 2
        assert "point 3 is not normalized" in err

    def test_repeated_point(self, tmp_path, curve_file, capsys):
        def repeat(data):
            data["points"][5] = list(data["points"][4])
        code, err = self.verify_quick(
            self.damaged(tmp_path, curve_file, repeat), capsys)
        assert code == 2
        assert "point 5 repeats point 4" in err

    def test_too_few_points(self, tmp_path, curve_file, capsys):
        # a genus-4 context needs 4 * 35 panel and 2 * 35 holdout points
        path = self.damaged(tmp_path, curve_file,
                            lambda d: d.update(points=d["points"][:100]))
        code, err = self.verify_quick(path, capsys)
        assert code == 2
        assert "field 'points'" in err and "100" in err and "210" in err


class TestPathFaults:
    """A path given on the command line that cannot be read or written,
    or a curve file that is not JSON, is a configuration error (exit 2)
    whose message names the path."""

    @pytest.mark.parametrize("command", [
        ["verify", "--curve", "{dir}"],
        ["gen-curve", "--genus", "4", "--out", "{dir}"],
        ["spans", "--curve", "{curve}", "--config", "{dir}"],
    ], ids=lambda c: c[0])
    def test_directory(self, tmp_path, curve_file, capsys, command):
        argv = [a.format(dir=tmp_path, curve=curve_file) for a in command]
        assert main(argv) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_curve_file_not_json(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{genus")
        assert main(["verify", "--curve", str(path), "--quick"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Expecting property name" in err

    def test_spans_config_not_json(self, tmp_path, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "_load_context", loads.append)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{bad")
        assert main(["spans", "--curve", str(tmp_path / "missing.json"),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"spans config {cfg}" in err and "Expecting property" in err
        assert loads == []

    WRITERS = {
        "gen-curve": ["gen-curve", "--genus", "4", "--out", "{out}"],
        "ideal": ["ideal", "--curve", "{curve}", "--degree", "2",
                  "--out", "{out}"],
        "reconstruct": ["reconstruct", "--curve", "{curve}", "--out",
                        "{out}"],
        "spans-out": ["spans", "--curve", "{curve}", "--out", "{out}"],
        "spans-trajectory": ["spans", "--curve", "{curve}",
                             "--trajectory", "{out}"],
        "hessian": ["hessian", "--curve", "{curve}", "--out", "{out}"],
        "verify": ["verify", "--curve", "{curve}", "--quick",
                   "--out", "{out}"],
    }

    @pytest.mark.parametrize("where", ["directory", "missing-parent",
                                       "empty"])
    @pytest.mark.parametrize("command", sorted(WRITERS))
    def test_output_path_checked_before_the_work(
            self, tmp_path, curve_file, capsys, monkeypatch, command, where):
        # the parser rejects the path: no curve is read or generated and
        # nothing is printed to stdout, such as a criterion line
        calls = []
        monkeypatch.setattr(cli, "_load_context", calls.append)
        monkeypatch.setattr(cv, "generate_curve", lambda *a: calls.append(a))
        out = {"directory": str(tmp_path), "empty": "",
               "missing-parent": str(tmp_path / "missing" / "out.json")}[where]
        argv = [a.format(out=out, curve=curve_file)
                for a in self.WRITERS[command]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"cannot write {out!r}" in captured.err and captured.out == ""
        assert calls == []


def inject(monkeypatch, module, name, exc, calls=None, within=None):
    """Make module.name raise exc on the listed calls (1-based; None means
    every call).  With within=(owner, fname), only calls made while
    owner.fname runs are counted.  Returns the list of calls that raised."""
    original = getattr(module, name)
    fired: list[int] = []
    state = {"calls": 0, "active": within is None}

    def failing(*args, **kwargs):
        if state["active"]:
            state["calls"] += 1
            if calls is None or state["calls"] in calls:
                fired.append(state["calls"])
                raise exc(f"{name} certificate failed (injected)")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)
    if within is not None:
        owner, fname = within
        outer = getattr(owner, fname)

        def scoped(*args, **kwargs):
            was, state["active"] = state["active"], True
            try:
                return outer(*args, **kwargs)
            finally:
                state["active"] = was

        monkeypatch.setattr(owner, fname, scoped)
    return fired


class TestRecoveryPolicy:
    """Only a DegenerateInput is resampled; a certificate failure raised
    anywhere in a retry loop reaches the command line as exit 3."""

    def test_failed_cone_certificate_exits_3(self, curve_file, monkeypatch,
                                             capsys):
        # one cone certificate, made where the cone is reconstructed,
        # fails; it is not resampled, and the run stops there
        fired = inject(monkeypatch, cn, "_verify", VerificationFailed,
                       calls=(1,))
        assert main(["verify", "--curve", curve_file, "--quick"]) == 3
        err = capsys.readouterr().err
        assert fired == [1]
        assert "VerificationFailed" in err
        assert "_verify certificate failed" in err

    SITES = {
        # site: (command, injected function, function running the site)
        "square-rows": ("spans", (cn, "double_quadric_quartic"),
                        (sl, "_square_rows")),
        "vertex-branch": ("verify", (nt, "net_from_vertex"),
                          (cn, "secant_through_vertex")),
        "degenerate-net": ("spans", (nt, "net_from_vertex"),
                           (cn, "degenerate_net")),
        "generate-curve": ("gen-curve", (cv, "sample_points"),
                           (cv, "generate_curve")),
    }

    @staticmethod
    def run(command, curve_file, tmp_path):
        if command == "gen-curve":
            return main(["gen-curve", "--genus", "4", "--seed", "1",
                         "--out", str(tmp_path / "c.json")])
        if command == "spans":
            cfg = tmp_path / "cfg.json"
            cfg.write_text('{"sample_count": 6, "off_curve": 20}')
            return main(["spans", "--curve", curve_file, "--config",
                         str(cfg), "--out", str(tmp_path / "s.json")])
        return main(["verify", "--curve", curve_file, "--quick"])

    @pytest.mark.parametrize("site", sorted(SITES))
    @pytest.mark.parametrize("exc, code", [(VerificationFailed, 3),
                                           (DegenerateInput, 0)],
                             ids=["certificate", "degenerate"])
    def test_site(self, site, exc, code, curve_file, tmp_path, monkeypatch):
        command, (module, name), within = self.SITES[site]
        fired = inject(monkeypatch, module, name, exc, calls=(1,),
                       within=within)
        assert self.run(command, curve_file, tmp_path) == code
        assert fired == [1]

    def test_engine_value_error_is_no_config_error(self, tmp_path,
                                                   monkeypatch):
        # only a ConfigError or an OSError exits 2: an engine ValueError
        # is a fault of the program and reaches the caller of main
        fired = inject(monkeypatch, cv, "sample_points", ValueError)
        with pytest.raises(ValueError, match="injected"):
            main(["gen-curve", "--genus", "4", "--seed", "1",
                  "--out", str(tmp_path / "c.json")])
        assert fired == [1]

    def test_exhausted_budget_names_the_label(self, tmp_path, monkeypatch,
                                              capsys):
        inject(monkeypatch, cv, "sample_points", DegenerateInput,
               within=(cv, "generate_curve"))
        assert main(["gen-curve", "--genus", "4", "--seed", "1",
                     "--out", str(tmp_path / "c.json")]) == 4
        err = capsys.readouterr().err
        assert "smooth curve of genus 4" in err
        assert "64 attempts" in err


# sha256 of the report `verify --quick` writes for the genus-5 curve of seed
# 7 at prime 1000003, recorded with pencil fibers split one at a time.  The
# benchmark digests cover genus 4 only, and a line vertex (the genus-5 path
# of the vertex conditions) needs genus 5.
GENUS5_QUICK_REPORT = \
    "eb2a7f1f2c422f7e6341990e2245c94815d437f128cb79613681b8bd49ffdaef"


def test_genus5_quick_report_is_pinned(ctx5):
    # ctx5 holds the points gen-curve writes for this curve, so the report
    # is the file's without sampling again
    cfg = acc.preset("quick", 0)
    report = acc.report_json(ctx5, cfg, acc.run_criteria(ctx5, cfg))
    assert hashlib.sha256(report.encode()).hexdigest() == GENUS5_QUICK_REPORT


# sha256 of the report `verify --full` writes for the same curve, recorded
# while each zero harvest drew one line a round and the family sweep of
# criterion 10 fitted 45/45 from 94 samples.  Quick asks for one
# engineered double secant and 5 oracle zeros per probed form, the full
# run for 5 secants, over more sweep families, and 25 zeros.
GENUS5_FULL_REPORT = \
    "8cb0a0afa5872446e0bbe75960c6691cea85808e22da2958d43a8065b26a2dcf"


def test_genus5_full_report_is_pinned(work_log):
    # the report of the counted genus-5 run of `gen-curve` and `verify
    # --full` (conftest.py)
    assert hashlib.sha256(work_log.report(5).read_bytes()).hexdigest() \
        == GENUS5_FULL_REPORT


# sha256 of the report `verify --quick` writes for the genus-4 curve of seed
# 1 at prime 33554393, recorded while each plane image was fitted from all
# its projected panel points.  The full-row check of the fit sums its
# products closest to the int64 bound at this prime.
GENUS4_QUICK_REPORT_P_MAX = \
    "a2abd68ec2c47a1ddbd6ef6a1f6c43d8f4048cf5113bff15891e253c82978b33"


def test_genus4_quick_report_is_pinned_at_largest_prime(ctx4_max):
    # ctx4_max holds the points gen-curve writes for this curve
    cfg = acc.preset("quick", 0)
    report = acc.report_json(ctx4_max, cfg, acc.run_criteria(ctx4_max, cfg))
    assert hashlib.sha256(report.encode()).hexdigest() \
        == GENUS4_QUICK_REPORT_P_MAX


# sha256 of the payload `spans` writes with its default config for the same
# curve, recorded with the cones collected and certified one net at a time
# and the base-locus probes tested one at a time.
GENUS5_SPANS = \
    "1fc58fcd77d3aee1f434b28896a3e598624d7a95d23694983478137ca998cfd7"


def test_genus5_spans_payload_is_pinned(ctx5, tmp_path):
    # the curve file gen-curve writes holds exactly the context's points
    curve_file = tmp_path / "c5.json"
    cv.save_curve(str(curve_file), ctx5.curve,
                  list(ctx5.points))
    out = tmp_path / "spans5.json"
    assert main(["spans", "--curve", str(curve_file), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENUS5_SPANS
