"""cwkit run as `python -m cwkit.cli` in a child process, which reads sys.argv as the
installed console script does.  Each test is one check of the command line, with its
command and its assertion."""

import json
import os
import subprocess
import sys

import pytest

from cwkit import cli

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))


def cwkit(*argv, timeout=60):
    """(exit code, stdout, stderr) of one cwkit call in a child process."""
    done = subprocess.run([sys.executable, "-m", "cwkit.cli", *map(str, argv)], env=ENV,
                          capture_output=True, text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="module")
def generate(tmp_path_factory):
    """generate(*kind): the file `cwkit generate *kind` writes, made once per kind."""
    root, made = tmp_path_factory.mktemp("console"), {}

    def make(*kind):
        if kind not in made:
            made[kind] = root / f"g{len(made)}.cwx"
            assert cwkit("generate", *kind, "--out", made[kind])[0] == 0
        return made[kind]
    return make


@pytest.fixture
def p3(generate):
    """The default length-3 path, its own 4-part quotient."""
    return generate("path", "--length", "3")


def validates(*argv, timeout=60):
    code, out, _ = cwkit("cover-pullback", *argv, timeout=timeout)
    return code == 0 and json.loads(out)["validation"]["ok"] is True


class TestCoverPullback:
    def test_a_bool_cover_scale_exits_3(self, p3, tmp_path):
        # the sets are the part ids of the path's quotient
        cover = tmp_path / "bool-r.json"
        cover.write_text('{"collections": [[["x", "x-y.1", "x-y.2", "y"]]], "r": true, '
                         '"bound": 3}')
        assert cwkit("cover-pullback", p3, "--cover", cover)[0] == 3

    def test_a_string_cover_set_exits_3(self, tmp_path):
        # the string "xy" is not the set {x, y}
        path = tmp_path / "xy.cwx"
        path.write_text("cw k=2\n(join 1 2 (union (v x 1) (v y 2)))\n")
        cover = tmp_path / "xy-cover.json"
        cover.write_text('{"collections": [["xy"]], "r": 1, "bound": 9}')
        assert cwkit("cover-pullback", path, "--cover", cover)[0] == 3

    def test_a_subdivided_k5_validates(self, generate):
        assert validates(generate("subdivided-clique", "--n", "5", "--times", "7"))

    def test_slope_is_an_argparse_error(self, p3):
        assert cwkit("cover-pullback", p3, "--slope", "2")[0] == 2

    def test_a_nan_scale_is_named(self, p3):
        code, _, err = cwkit("cover-pullback", p3, "--r=nan")
        assert code == 3 and "pullback scale must be finite" in err

    def test_a_spider_validates_where_its_slope_rounds_down(self, generate):
        # the default cover's bound 30 over the target scale 6.300000000000001 rounds down
        assert validates(generate("spider", "--legs", "1,2,14"), "--r", "1.1")

    def test_an_infinite_target_scale_is_named(self, generate):
        path = generate("subdivided-clique", "--n", "4", "--times", "3")
        code, _, err = cwkit("cover-pullback", path, "--r", "8e307")
        assert (code, err) == (3, "error: target scale c*r + c must be finite, got inf at c=3\n")

    def test_an_infinite_pulled_bound_is_named(self, p3):
        code, _, err = cwkit("cover-pullback", p3, "--r", "8e307")
        assert (code, err) == (3, "error: pulled bound c*slope*(2*c*r) + c*c*r must be finite, "
                                  "got inf at c=1\n")

    def test_a_subdivided_k12_validates_within_a_minute(self, generate):
        assert validates(generate("subdivided-clique", "--n", "12", "--times", "48"))
