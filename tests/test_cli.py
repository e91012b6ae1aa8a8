"""Golden-output tests for the command-line interface."""

import pytest

import updown as ud
from updown.cli import main
from helpers import DELTA, tangle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenLines:
    def test_maxord(self, capsys):
        code, out, _ = run(capsys, "maxord", "O1+ O2+ ; U1+ U2+")
        assert code == 0
        assert out == "maxord=2\n"

    def test_phi(self, capsys):
        code, out, _ = run(capsys, "phi", "O1- O2+ U1- U2+", "--cocycle", "example-f")
        assert code == 0
        assert out == "phi_shift=1\n"

    def test_compare(self, capsys):
        code, out, _ = run(capsys, "compare", "O1+ O2+ ; U1+ U2+", "() ; ()")
        assert code == 0
        assert out == "bound=1 certificate=maxord-difference detail=|2-0|/2\n"

    def test_compare_with_cocycle(self, capsys):
        code, out, _ = run(capsys, "compare", DELTA, "()", "--cocycle", "example-f")
        assert code == 0
        assert out == "bound=1 certificate=phi-multiset-difference detail={1,1,1,1}!={0,0,0,0}\n"

    def test_validate(self, capsys):
        code, out, _ = run(capsys, "validate", tangle(2))
        assert code == 0
        assert out == "valid components=2 crossings=4\n"

    def test_count(self, capsys):
        code, out, _ = run(capsys, "count", tangle(2), "--n", "4")
        assert code == 0
        assert out == "count=16\n"

    def test_phi_multiset(self, capsys):
        code, out, _ = run(capsys, "phi-multiset", DELTA, "--cocycle", "example-f")
        assert code == 0
        assert out == "phi_multiset={1,1,1,1}\n"

    def test_connect(self, capsys):
        code, out, _ = run(capsys, "connect", "O1+ U1+", "O1+ U1+",
                           "--at1", "1", "--at2", "1")
        assert code == 0
        assert out == "code=O1+ U1+ O2+ U2+\n"

    def test_maxord_deterministic(self, capsys):
        first = run(capsys, "maxord", tangle(3))
        second = run(capsys, "maxord", tangle(3))
        assert first == second


class TestColorings:
    def test_dump_format(self, capsys):
        code, out, _ = run(capsys, "colorings", "()", "--n", "2")
        assert code == 0
        assert out.splitlines() == [
            "count=2",
            "coloring=0", "component=0 arc=0 color=0",
            "coloring=1", "component=0 arc=0 color=1",
        ]

    def test_count_with_dump_flag(self, capsys):
        _, plain, _ = run(capsys, "count", "O1+ U1+", "--n", "2")
        _, dumped, _ = run(capsys, "count", "O1+ U1+", "--n", "2", "--dump-colorings")
        _, listed, _ = run(capsys, "colorings", "O1+ U1+", "--n", "2")
        assert plain == "count=2\n"
        assert dumped == listed
        assert listed.startswith("count=2\n")
        assert "component=0 arc=1 color=" in listed

    def test_generalized_weights(self, capsys):
        code, out, _ = run(capsys, "count", "O1- O2+ ; U1- U2+",
                           "--n", "8", "--pos", "3", "--neg", "5")
        assert code == 0
        assert out == "count=64\n"


class TestCocycleCommands:
    def test_check_builtin(self, capsys):
        code, out, _ = run(capsys, "cocycle-check", "example-f")
        assert code == 0
        assert out == "ok=true shiftable=true\n"

    def test_check_failure_reports_witness(self, capsys, tmp_path):
        table = ud.CocycleTable.from_function(
            2, 2, lambda a, b, s: 1 if (a, b, s) == (0, 0, 1) else 0)
        path = tmp_path / "bad.cocycle"
        path.write_text(ud.format_table(table))
        code, out, _ = run(capsys, "cocycle-check", f"@{path}")
        assert code == 0
        assert out == "ok=false condition=0 witness=a=0,eps=+\n"

    @pytest.mark.parametrize("shiftable", [True, False])
    def test_check_runs_shiftable_test_once(self, capsys, tmp_path, monkeypatch, shiftable):
        # a valid but non-shiftable cocycle over Z_2: entries (1,0,+) and (1,0,-)
        table = ud.builtin_table("example-f") if shiftable else ud.CocycleTable.from_function(
            2, 2, lambda a, b, s: 1 if (a, b) == (1, 0) else 0)
        path = tmp_path / "t.cocycle"
        path.write_text(ud.format_table(table))
        calls = []
        real = ud.cocycle.is_shiftable
        monkeypatch.setattr(ud.cocycle, "is_shiftable", lambda t: calls.append(t) or real(t))
        code, out, _ = run(capsys, "cocycle-check", f"@{path}")
        assert code == 0
        assert out == f"ok=true shiftable={'true' if shiftable else 'false'}\n"
        assert calls == [table]

    def test_check_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "f.cocycle"
        path.write_text(ud.format_table(ud.builtin_table("example-f")))
        code, out, _ = run(capsys, "cocycle-check", f"@{path}")
        assert code == 0
        assert out == "ok=true shiftable=true\n"

    def test_search_count(self, capsys):
        code, out, _ = run(capsys, "cocycle-search", "--n", "2", "--m", "2")
        assert code == 0
        assert out == "count=4\n"

    def test_search_rejects_zero_modulus(self, capsys):
        code, out, err = run(capsys, "cocycle-search", "--n", "0", "--m", "2")
        assert (code, out, err) == (1, "", "error: both moduli must be >= 1\n")

    def test_search_dump_parses_back(self, capsys):
        code, out, _ = run(capsys, "cocycle-search", "--n", "2", "--m", "2", "--dump")
        assert code == 0
        blocks = out.split("table=")
        assert blocks[0] == "count=4\n"
        tables = []
        for block in blocks[1:]:
            body = block.split("\n", 1)[1]
            tables.append(ud.parse_table(body))
        assert tables == ud.enumerate_shiftable(2, 2)


class TestWalk:
    def test_log_format_and_determinism(self, capsys):
        args = ("walk", "()", "--steps", "5", "--seed", "42",
                "--kinds", "RI-add,RI-remove")
        code, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert code == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("step=1 move=RI-add/")
        assert " code=" in lines[0]

    def test_zero_steps_print_nothing(self, capsys):
        assert run(capsys, "walk", "O1+ U1+", "--steps", "0") == (0, "", "")

    def test_negative_steps_exit_one(self, capsys):
        code, out, err = run(capsys, "walk", "O1+ U1+", "--steps", "-1")
        assert (code, out, err) == (1, "", "error: steps must be >= 0\n")

    def test_stall_logged(self, capsys):
        code, out, _ = run(capsys, "walk", "()", "--steps", "2", "--seed", "0",
                           "--kinds", "RI-remove")
        assert code == 0
        assert out == "step=1 move=stall code=()\nstep=2 move=stall code=()\n"


class TestInputsAndErrors:
    def test_diagram_from_file(self, capsys, tmp_path):
        path = tmp_path / "d.gauss"
        path.write_text(tangle(1) + "\n")
        code, out, _ = run(capsys, "maxord", f"@{path}")
        assert code == 0
        assert out == "maxord=2\n"

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "maxord", "@/nonexistent/path.gauss")
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_bad_code_exits_one(self, capsys):
        code, out, err = run(capsys, "validate", "O1+ U2+ U1+")
        assert code == 1
        assert "error:" in err and "crossing 2" in err

    def test_parse_error_position(self, capsys):
        code, _, err = run(capsys, "validate", "O1+ X2-")
        assert code == 1
        assert "position" in err

    def test_phi_multiset_needs_flag_for_links(self, capsys):
        code, _, err = run(capsys, "phi-multiset", tangle(1), "--cocycle", "example-f")
        assert code == 1
        assert "single-component" in err
        code, out, _ = run(capsys, "phi-multiset", tangle(1), "--cocycle", "example-f",
                           "--unchecked-links")
        assert code == 0
        assert out == "phi_multiset={}\n"

    def test_budgets_exit_one(self, capsys):
        loops = " ; ".join(["()"] * 20)
        for argv in (("phi-multiset", loops, "--cocycle", "example-f", "--unchecked-links"),
                     ("count", loops, "--n", "4", "--dump-colorings"),
                     ("cocycle-check", "zero(100000,2)"),
                     ("count", " ; ".join(["()"] * 800), "--n", "1000000"),
                     # 10**6 colorings, within the coloring budget, of 200 semi-arcs
                     ("colorings", " ".join(f"O{x}+ U{x}+" for x in range(1, 101)),
                      "--n", "1000000")):
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "budget" in err

    def test_oversized_integers_exit_one(self, capsys, tmp_path):
        # int() converts 2200 digits but not 5000; a size computed from 2200
        # digits has more digits than str() formats
        nines, wide = "9" * 5000, "9" * 2200
        table, wide_table = tmp_path / "big.tab", tmp_path / "wide.tab"
        table.write_text(f"n={nines} m=2\n")
        wide_table.write_text(f"n={wide} m=2\n")
        for argv, word in ((("validate", f"O{nines}+"), ""),
                           (("cocycle-check", f"zero({nines},2)"), ""),
                           (("cocycle-check", f"@{table}"), ""),
                           (("cocycle-check", f"@{wide_table}"), "budget"),
                           (("cocycle-check", f"zero({wide},2)"), "budget"),
                           (("cocycle-search", "--n", wide, "--m", "2"), "budget"),
                           (("cocycle-search", "--n", "4", "--m", wide), "budget")):
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and word in err
            assert "Traceback" not in err and err.count("\n") == 1

    def test_walk_from_oversized_ids_exits_one(self, capsys):
        # fresh ids max + 1 would pass str()'s 4300-digit limit
        nines = "9" * 4300
        code, out, err = run(capsys, "walk", f"O{nines}+ U{nines}+", "--steps", "3",
                             "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_walk_from_ids_at_the_bound(self, capsys):
        # no fresh id is left below 10**4000, so only the kink's removal applies
        nines = "9" * 4000
        code, out, err = run(capsys, "walk", f"O{nines}+ U{nines}+", "--steps", "3",
                             "--seed", "1")
        assert code == 0 and err == ""
        assert out.splitlines()[0].startswith("step=1 move=RI-remove")

    @pytest.mark.parametrize("command", ["validate", "cocycle-check"])
    def test_non_utf8_file_exits_one(self, capsys, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00bad")
        code, out, err = run(capsys, command, f"@{path}")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert repr(str(path)) in err

    def test_wide_shiftable_table_skips_the_scan(self, capsys, monkeypatch):
        # the closed form accepts it, so none of the 8 * 300**3 condition rows is read
        def no_scan(t):
            raise AssertionError("condition scan entered")
        monkeypatch.setattr(ud.cocycle, "_scan_violation", no_scan)
        code, out, _ = run(capsys, "cocycle-check", "zero(300,2)")
        assert code == 0
        assert out == "ok=true shiftable=true\n"

    def test_wide_condition_scan_exits_one(self, capsys, tmp_path):
        # zero diagonal, not shiftable: deciding it needs 8 * 300**3 condition rows
        path = tmp_path / "wide.cocycle"
        path.write_text(ud.format_table(
            ud.CocycleTable.from_function(300, 2, lambda a, b, s: int((a, b) == (0, 1)))))
        for argv in (("cocycle-check", f"@{path}"),
                     ("phi", "O1+ U1+", "--cocycle", f"@{path}")):
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "budget" in err

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "()"])  # --n is required
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["maxord", "()", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("codes", [("O1+ O2+ ; U1+ U2+", "() ; ()"), ("O1+ U1+", "()")],
                             ids=["link", "knot"])
    def test_compare_rejects_non_cocycle(self, capsys, tmp_path, codes):
        path = tmp_path / "bad.cocycle"
        path.write_text("n=1 m=2\n0 0 + 1\n0 0 - 0\n")
        code, out, err = run(capsys, "compare", *codes, "--cocycle", f"@{path}")
        assert (code, out) == (1, "")
        assert err == "error: table is not an up-down cocycle: condition=0 witness=a=0,eps=+\n"

    def test_compare_component_mismatch(self, capsys):
        code, _, err = run(capsys, "compare", "()", "() ; ()")
        assert code == 1
        assert "components" in err
