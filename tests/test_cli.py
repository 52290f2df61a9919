import json

from qweyl import cli, weylops
from qweyl.aqn import Element


def run(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, ["verify", "weyl", "--n", "1", "--degree", "3"])
    assert code == 0
    assert out.strip().endswith("RESULT: PASS (0 failed)")
    assert "[pass] sigma-inv:i=1" in out


def test_verify_all(capsys):
    code, out, _ = run(capsys, ["verify", "all", "--n", "2", "--degree", "3"])
    assert code == 0
    for name in ("weyl", "serre", "gl", "prop32", "braid", "lemma34",
                 "theorem33", "lemma21", "classical"):
        assert f"suite {name}:" in out


def test_verify_all_rank_one_skips(capsys):
    code, out, _ = run(capsys, ["verify", "all", "--n", "1", "--degree", "3"])
    assert code == 0
    assert "[skip] suite:gl" in out


def test_verify_high_degree(capsys):
    # the letter boxes are checked one degree layer at a time in a loop, so
    # a degree far above the recursion limit still finishes
    code, out, _ = run(capsys, ["verify", "weyl", "--n", "1", "--degree", "600",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["failed"] == 0


def test_oracle_suite_above_the_cap_exits_2(capsys):
    code, out, err = run(capsys, ["verify", "lemma21", "--n", "4",
                                  "--degree", "40"])
    assert code == 2 and out == ""
    assert "sweeps 135751 monomials, above the cap of 20000" in err


def test_verify_all_checks_the_oracle_cap_first(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "verify_weyl_relations", lambda *args: ran.append(args))
    code, out, err = run(capsys, ["verify", "all", "--n", "10", "--degree", "10"])
    assert code == 2 and out == "" and not ran
    assert err == ("error: lemma21 at n=10, degree 10 sweeps 184756 monomials, "
                   "above the cap of 20000\n")


def test_config_errors(capsys):
    code, _, err = run(capsys, ["verify", "weyl", "--n", "0"])
    assert code == 2
    assert "n must be >= 1" in err
    code, _, err = run(capsys, ["verify", "gl", "--n", "1"])
    assert code == 2
    code, _, _ = run(capsys, ["verify", "nope", "--n", "2"])
    assert code == 2
    code, _, err = run(capsys, ["verify", "weyl", "--n", "2", "--degree", "-1"])
    assert code == 2
    code, _, err = run(capsys, ["verify", "theorem33", "--n", "2",
                                "--word", "1,2"])
    assert code == 2
    code, _, err = run(capsys, ["verify", "serre", "--n", "2", "--word", "1,2"])
    assert code == 2
    assert "--word" in err


def test_act_examples(capsys):
    code, out, _ = run(capsys, ["act", "--n", "2", "--op", "e2",
                                "--on", "x^(1,1)"])
    assert code == 0
    assert out.splitlines()[0] == "(q^2+2+q^-2) x^(1,2)"
    code, out, _ = run(capsys, ["act", "--n", "2", "--op", "f2",
                                "--on", "x^(1,1)"])
    assert out.splitlines()[0] == "-x^(1,0)"
    code, out, _ = run(capsys, ["act", "--n", "2", "--op", "K2",
                                "--on", "x^(1,1)"])
    assert out.splitlines()[0] == "q^3 x^(1,1)"


def test_act_parse_error(capsys):
    code, _, err = run(capsys, ["act", "--n", "2", "--op", "x1 +",
                                "--on", "x^(1,1)"])
    assert code == 2
    assert "offset 3" in err


def test_act_json(capsys):
    code, out, _ = run(capsys, ["act", "--n", "2", "--op", "f2",
                                "--on", "x^(1,1)", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert Element.from_json(obj).terms  # parses back into an element
    assert obj["terms"][0]["beta"] == [1, 0]


def test_normalize(capsys):
    code, out, _ = run(capsys, ["normalize", "--n", "1", "--op", "d1 x1"])
    assert code == 0
    assert out.splitlines()[0] == "q x1 d1 + s1^-1"
    code, out, _ = run(capsys, ["normalize", "--n", "1", "--op", "x1 d1"])
    assert out.splitlines()[0] == "x1 d1"
    code, out, _ = run(capsys, ["normalize", "--n", "2", "--op",
                                "d1 x1 d2 s1 t(1,0)", "--check"])
    assert code == 0
    assert "confirmed" in out


def test_normalize_check_above_the_cap_exits_2(capsys, monkeypatch):
    # 10626 monomials times 128 + 183 words would run for minutes
    code, out, err = run(capsys, ["normalize", "--n", "4", "--op",
                                  "[e4 e3 f4 E(1,5), f2 e4]", "--check",
                                  "--degree", "20"])
    assert code == 2 and out == ""
    assert err == ("error: normalize --check at n=4, degree 20 applies 3304686 "
                   "words (311 words on each of 10626 monomials), above the cap "
                   "of 200000\n")
    # d1 x1 and its two-word normal form: 3 words on degree + 1 monomials
    monkeypatch.setattr(cli, "NORMALIZE_CHECK_CAP", 30)
    args = ["normalize", "--n", "1", "--op", "d1 x1", "--check", "--degree"]
    code, out, _ = run(capsys, args + ["9"])
    assert code == 0 and "confirmed" in out
    code, out, err = run(capsys, args + ["10"])
    assert code == 2 and out == "" and "applies 33 words" in err
    # without --check nothing is swept, so nothing is refused
    code, out, _ = run(capsys, args[:-2] + ["--degree", "10"])
    assert code == 0 and out.splitlines()[0] == "q x1 d1 + s1^-1"


def test_rootvec(capsys):
    code, out, _ = run(capsys, ["rootvec", "--n", "2", "--i", "1", "--j", "3",
                                "--degree", "4"])
    assert code == 0
    assert "agreement up to degree 4: pass" in out
    code, out, _ = run(capsys, ["rootvec", "--n", "2", "--i", "3", "--j", "1",
                                "--degree", "4"])
    assert code == 0
    code, _, err = run(capsys, ["rootvec", "--n", "2", "--i", "2", "--j", "2"])
    assert code == 2


def test_rootvec_word_cap(capsys):
    # prefix 9 of the default n = 4 word would expand to 2^33 words
    code, out, err = run(capsys, ["rootvec", "--n", "4", "--i", "3", "--j", "5"])
    assert code == 2 and out == ""
    assert "8589934592 words" in err and "65536" in err


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["verify", "weyl", "--n", "1", "--degree", "3",
                                "--format", "json", "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)
    obj = json.loads(out)
    assert obj["check"] == "weyl" and obj["failed"] == 0


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, ["verify", "serre", "--n", "2", "--degree", "3",
                               "--format", "json"])
    _, second, _ = run(capsys, ["verify", "serre", "--n", "2", "--degree", "3",
                                "--format", "json"])
    assert first == second


def test_threads_flags(capsys, monkeypatch):
    code, _, _ = run(capsys, ["verify", "weyl", "--n", "1", "--degree", "2",
                              "--threads", "4"])
    assert code == 0
    code, _, err = run(capsys, ["verify", "weyl", "--n", "1", "--threads", "0"])
    assert code == 2
    monkeypatch.setenv("QWEYL_THREADS", "junk")
    code, _, err = run(capsys, ["verify", "weyl", "--n", "1", "--degree", "2"])
    assert code == 2
    monkeypatch.setenv("QWEYL_THREADS", "2")
    code, _, _ = run(capsys, ["verify", "weyl", "--n", "1", "--degree", "2",
                              "--threads", "8"])
    assert code == 0


def test_verification_failure_exit_code(capsys, monkeypatch):
    # corrupt the derivative action; the suite must fail with exit 1
    orig = weylops._letter

    def corrupt(g, b):
        hit = orig(g, b)
        if g.kind != "D" or hit is None:
            return hit
        return hit[0], 0, hit[2]  # missing twist

    monkeypatch.setattr(weylops, "_letter", corrupt)
    code, out, _ = run(capsys, ["verify", "weyl", "--n", "2", "--degree", "3"])
    assert code == 1
    assert "FAIL" in out


def test_repeated_main_matches_a_fresh_parser(capsys, monkeypatch):
    # main builds its parser once per process; a good command, an argparse
    # error, --help at both levels and the good command again must each
    # print and exit exactly as with a parser built for that call alone.
    argvs = [["normalize", "--n", "1", "--op", "d1 x1"],
             ["verify", "nope", "--n", "2"],
             ["--help"],
             ["normalize", "--help"],
             ["normalize", "--n", "1", "--op", "d1 x1"]]
    reused = [run(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "_make_parser", cli._make_parser.__wrapped__)
    fresh = [run(capsys, argv) for argv in argvs]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0, 0, 0]
    assert "invalid choice" in reused[1][2]
    assert reused[2][1].startswith("usage: qweyl")
