"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main

NETLIST = """
.title cli-demo
Rdrv n0 0 10
C0 n0 0 0.02p
R1 n0 n1 25
C1 n1 0 0.02p
R2 n1 n2 25
C2 n2 0 0.02p
R3 n2 n3 25
C3 n3 0 0.02p
.port in n0
"""


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "demo.sp"
    path.write_text(NETLIST)
    return str(path)


def _reduced_model(netlist_file):
    """The model the parametric CLI commands build for ``--moments 3``."""
    from repro.circuits.generators import with_random_variations
    from repro.circuits.parser import parse_netlist
    from repro.core import LowRankReducer

    parametric = with_random_variations(
        parse_netlist(NETLIST, title=netlist_file), 2, seed=0, relative_spread=0.5
    )
    return LowRankReducer(num_moments=3, rank=1).reduce(parametric)


class TestInfo:
    def test_reports_stats(self, netlist_file, capsys):
        assert main(["info", netlist_file]) == 0
        out = capsys.readouterr().out
        assert "nodes:        4" in out
        assert "capacitors:   4" in out
        assert "cli-demo" in out
        assert "passivity-structure margin" in out

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent/netlist.sp"]) == 1
        assert "error:" in capsys.readouterr().err


class TestReduce:
    def test_prima_reduction_passes_tolerance(self, netlist_file, capsys):
        code = main(["reduce", netlist_file, "--method", "prima", "--moments", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "full order:    4" in out
        assert "worst relative response error" in out
        assert "structurally passive: True" in out

    def test_jobs_process_and_shared_refused_in_one_line(self, netlist_file,
                                                         capsys):
        """``work montecarlo`` has no ``--jobs`` either: argparse
        refuses it (exit 2), one error line after its usage."""
        for spec in ("process", "shared", "thread"):
            with pytest.raises(SystemExit) as excinfo:
                main(["work", "montecarlo", netlist_file, "--store", "s",
                      "--jobs", spec])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert err[0].startswith("usage:")
            assert err[-1].endswith(f"error: unrecognized arguments: --jobs {spec}")

    def test_impossible_tolerance_fails(self, netlist_file, capsys):
        code = main(
            ["reduce", netlist_file, "--moments", "1", "--tolerance", "1e-30"]
        )
        assert code == 2

    def test_rational_method(self, netlist_file, capsys):
        code = main(
            ["reduce", netlist_file, "--method", "rational", "--moments", "3",
             "--shifts", "2"]
        )
        assert code == 0
        assert "method: rational" in capsys.readouterr().out

    def test_tbr_method(self, netlist_file, capsys):
        code = main(["reduce", netlist_file, "--method", "tbr", "--order", "3"])
        assert code == 0
        assert "method: tbr" in capsys.readouterr().out


class TestSweepAndPoles:
    def test_sweep_csv(self, netlist_file, capsys):
        assert main(["sweep", netlist_file, "--points", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "frequency_hz,magnitude,phase_deg"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(1e7)
        assert float(first[1]) > 0

    def test_poles_csv(self, netlist_file, capsys):
        assert main(["poles", netlist_file, "--num", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "pole_real,pole_imag,frequency_hz"
        assert len(lines) == 3
        real_part = float(lines[1].split(",")[0])
        assert real_part < 0  # stable RC poles

    def test_poles_match_api(self, netlist_file, capsys):
        from repro.analysis.poles import dominant_poles
        from repro.circuits import assemble, parse_netlist

        main(["poles", netlist_file, "--num", "1"])
        line = capsys.readouterr().out.strip().splitlines()[1]
        cli_pole = complex(float(line.split(",")[0]), float(line.split(",")[1]))
        system = assemble(parse_netlist(NETLIST))
        api_pole = dominant_poles(system, 1)[0]
        # The CLI prints 6 significant digits.
        assert cli_pole == pytest.approx(api_pole, rel=1e-5, abs=1e-5 * abs(api_pole))

    def test_poles_skip_poles_without_port_residue(self, tmp_path, capsys):
        """Two identical branches off the port: their antisymmetric mode
        (-5e9) leaves no residue at the port, so it is not dominant and
        the CLI prints the next pole with one."""
        from repro.analysis.poles import dominant_poles
        from repro.circuits import assemble, parse_netlist

        text = "\n".join([
            ".title two-branch", "Rdrv n0 0 10", "C0 n0 0 0.01p",
            "Ra n0 a 100", "Ca a 0 1p", "Rc a c 200", "Cc c 0 0.5p",
            "Rb n0 b 100", "Cb b 0 1p", "Rd b d 200", "Cd d 0 0.5p",
            ".port in n0", ""])
        path = tmp_path / "two-branch.sp"
        path.write_text(text)
        assert main(["poles", str(path), "--num", "2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        printed = [complex(float(row.split(",")[0]), float(row.split(",")[1]))
                   for row in rows]
        expected = dominant_poles(assemble(parse_netlist(text)), 2)
        assert len(printed) == 2
        np.testing.assert_allclose(printed, expected, rtol=1e-5)
        assert printed[1].real == pytest.approx(-1.892988e10, rel=1e-6)


class TestMonteCarlo:
    def test_study_summary_and_histogram(self, netlist_file, capsys):
        code = main(
            ["montecarlo", netlist_file, "--instances", "10", "--poles", "2",
             "--moments", "3", "--bins", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "instances:      10" in out
        assert "pole compares:  20" in out
        assert "max pole error:" in out
        lines = out.strip().splitlines()
        header_index = lines.index("bin_lo_pct,bin_hi_pct,count")
        bins = lines[header_index + 1:]
        assert len(bins) == 4
        assert sum(int(line.split(",")[2]) for line in bins) == 20

    def test_cache_hit_on_second_run(self, netlist_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "models")
        argv = ["montecarlo", netlist_file, "--instances", "3", "--poles", "2",
                "--moments", "3", "--cache", cache_dir]
        assert main(argv) == 0
        assert "# cache: miss" in capsys.readouterr().out
        assert main(argv) == 0
        assert "# cache: hit" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["montecarlo"], ["batch", "--plan", "corners"], ["transient"],
    ], ids=["montecarlo", "batch", "transient"])
    @pytest.mark.parametrize("value", ["1e300", "1.5", "-0.5", "nan"])
    def test_spread_outside_its_range_is_one_line(
        self, netlist_file, capsys, command, value
    ):
        argv = [*command[:1], netlist_file, *command[1:], "--spread", value]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: --spread must be between 0 and 1\n"

    @pytest.mark.parametrize("command, excursion", [
        (["montecarlo", "--parameters", "4", "--spread", "1"], "0.3"),
        (["batch", "--plan", "corners", "--magnitude", "2.5"], "2.5"),
        (["transient", "--plan", "grid", "--magnitude", "-1"], "1"),
    ], ids=["montecarlo", "batch", "transient"])
    def test_variation_that_can_zero_an_element_is_one_line(
        self, netlist_file, capsys, command, excursion
    ):
        argv = [command[0], netlist_file, *command[1:]]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: --spread ")
        assert f"excursions up to {excursion} can scale" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [["montecarlo"], ["work", "montecarlo"]],
                             ids=["montecarlo", "work-montecarlo"])
    @pytest.mark.parametrize("flag, value", [
        ("--poles", "0"), ("--poles", "-1"), ("--bins", "0"),
    ])
    def test_counts_below_one_exit_2_before_any_output(
        self, netlist_file, tmp_path, capsys, command, flag, value
    ):
        """``--poles 0`` used to print half the report, then exit 1 on a
        zero-size reduction in ``max_error``; ``--bins 0`` the same in
        the histogram."""
        argv = command + [netlist_file, "--instances", "3", "--moments", "3",
                          flag, value, "--store", str(tmp_path / "store")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flag in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("command", [["montecarlo"], ["work", "montecarlo"]],
                             ids=["montecarlo", "work-montecarlo"])
    def test_precision_flag_is_refused(self, netlist_file, tmp_path, capsys, command):
        argv = command + [netlist_file, "--instances", "3", "--moments", "3",
                          "--precision", "screen"]
        if command[0] == "work":
            argv += ["--store", str(tmp_path / "store")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --precision screen" in capsys.readouterr().err

    def test_full_precision_omits_screen_line(self, netlist_file, capsys):
        code = main(
            ["montecarlo", netlist_file, "--instances", "3", "--poles", "2",
             "--moments", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "screen tier:" not in out

    def test_chunk_output_matches_one_shot(self, netlist_file, capsys):
        """``--chunk`` bounds both pole studies without a store; the
        report is byte-identical."""
        argv = ["montecarlo", netlist_file, "--instances", "5", "--poles", "2",
                "--moments", "3"]
        assert main(argv) == 0
        one_shot = capsys.readouterr().out
        assert main(argv + ["--chunk", "2"]) == 0
        assert capsys.readouterr().out == one_shot

    def test_jobs_process_and_shared_refused_in_one_line(self, netlist_file,
                                                         capsys):
        """``--jobs`` is gone: argparse refuses every spec (exit 2),
        one error line after its usage."""
        for spec in ("process", "shared", "thread", "1"):
            with pytest.raises(SystemExit) as excinfo:
                main(["montecarlo", netlist_file, "--instances", "3",
                      "--jobs", spec])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert err[0].startswith("usage:")
            assert err[-1].endswith(f"error: unrecognized arguments: --jobs {spec}")

    def test_impossible_tolerance_fails(self, netlist_file, capsys):
        code = main(
            ["montecarlo", netlist_file, "--instances", "3", "--poles", "2",
             "--moments", "3", "--tolerance", "0"]
        )
        assert code == 2


class TestBatch:
    def test_corner_plan_envelope_csv(self, netlist_file, capsys):
        code = main(
            ["batch", netlist_file, "--plan", "corners", "--moments", "3",
             "--points", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CornerPlan" in out
        lines = [line for line in out.strip().splitlines()
                 if not line.startswith("#")]
        assert lines[0] == "frequency_hz,min_magnitude,mean_magnitude,max_magnitude"
        assert len(lines) == 6
        low, mean, high = (float(x) for x in lines[1].split(",")[1:])
        assert low <= mean <= high

    def test_grid_plan(self, netlist_file, capsys):
        code = main(
            ["batch", netlist_file, "--plan", "grid", "--grid-points", "3",
             "--moments", "3", "--points", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "# instances: 9" in out  # 3 axis points, 2 parameters

    def test_montecarlo_plan(self, netlist_file, capsys):
        code = main(
            ["batch", netlist_file, "--plan", "montecarlo", "--instances", "7",
             "--moments", "3", "--points", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "# instances: 7" in out

    def test_chunked_streaming_matches_one_shot(self, netlist_file, capsys):
        argv = ["batch", netlist_file, "--plan", "montecarlo", "--instances",
                "7", "--moments", "3", "--points", "4"]
        assert main(argv) == 0
        one_shot = capsys.readouterr().out
        assert "chunks: 1" in one_shot
        assert "# route: dense-batch" in one_shot
        assert main(argv + ["--chunk", "3"]) == 0
        chunked = capsys.readouterr().out
        assert "chunks: 3" in chunked
        assert "# route: dense-stream" in chunked
        # Same envelope CSV either way (only the chunk count line differs).
        csv = lambda text: [l for l in text.splitlines() if not l.startswith("#")]  # noqa: E731
        assert csv(chunked) == csv(one_shot)

    def test_memory_budget_derives_chunk_size(self, netlist_file, capsys):
        argv = ["batch", netlist_file, "--plan", "montecarlo", "--instances",
                "7", "--moments", "3", "--points", "4"]
        assert main(argv) == 0
        one_shot = capsys.readouterr().out
        # A generous budget streams in one chunk ...
        assert main(argv + ["--memory-budget", str(64 * 2**20)]) == 0
        generous = capsys.readouterr().out
        assert "chunks: 1" in generous
        # ... a tight (but sufficient) budget forces several chunks with
        # an identical envelope CSV.  Sized off the actual reduced order.
        from repro.runtime import sweep_chunk_bytes

        per = sweep_chunk_bytes(_reduced_model(netlist_file).size, 4, 1)
        assert main(argv + ["--memory-budget", str(3 * per)]) == 0
        tight = capsys.readouterr().out
        assert "# route: dense-stream" in tight
        csv = lambda text: [l for l in text.splitlines() if not l.startswith("#")]  # noqa: E731
        assert csv(tight) == csv(one_shot) == csv(generous)

    def test_memory_budget_too_small_reports_estimate(self, netlist_file, capsys):
        code = main(
            ["batch", netlist_file, "--plan", "montecarlo", "--instances", "4",
             "--moments", "3", "--points", "4", "--memory-budget", "8"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot fit a single instance" in err
        assert "bytes" in err

    def test_chunk_overrides_memory_budget(self, netlist_file, capsys):
        # --chunk is the manual override: the tiny budget would error out
        # on its own, but the explicit chunk size wins.
        code = main(
            ["batch", netlist_file, "--plan", "montecarlo", "--instances", "6",
             "--moments", "3", "--points", "4", "--memory-budget", "8",
             "--chunk", "2"]
        )
        assert code == 0
        assert "chunks: 3" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["batch"], ["work", "batch"]],
                             ids=["batch", "work-batch"])
    @pytest.mark.parametrize("flags, message", [
        (["--fmin", "-1"], "--fmin must be a finite number > 0"),
        (["--fmin", "0"], "--fmin must be a finite number > 0"),
        (["--fmin", "nan"], "--fmin must be a finite number > 0"),
        (["--fmax", "inf"], "--fmax must be a finite number >= --fmin"),
        (["--fmax", "1e6"], "--fmax must be a finite number >= --fmin"),
        (["--points", "0"], "--points must be an integer >= 1"),
    ], ids=["fmin-negative", "fmin-zero", "fmin-nan", "fmax-inf",
            "fmax-below-fmin", "points-zero"])
    def test_bad_band_is_refused_before_the_netlist_is_read(
            self, tmp_path, capsys, command, flags, message):
        """``--fmin -1`` used to print NaN rows, ``--points 0`` a header
        alone and ``--fmax`` below ``--fmin`` a descending band, each
        with exit 0.  The netlist does not exist: the band is refused
        first."""
        store = tmp_path / "store"
        argv = [*command, str(tmp_path / "absent.sp"), *flags]
        if command[0] == "work":
            argv += ["--store", str(store)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not store.exists()


class TestTransient:
    def test_step_envelope_csv_and_delay_summary(self, netlist_file, capsys):
        code = main(
            ["transient", netlist_file, "--plan", "corners", "--moments", "3",
             "--steps", "12"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CornerPlan" in out
        assert "StepInput" in out
        assert "# delay(50% of steady):" in out
        lines = [line for line in out.strip().splitlines()
                 if not line.startswith("#")]
        assert lines[0] == "time_s,min_output,mean_output,max_output"
        assert len(lines) == 14  # header + 13 time points
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        low, mean, high = (float(x) for x in first[1:])
        assert low <= mean <= high

    def test_ramp_waveform(self, netlist_file, capsys):
        code = main(
            ["transient", netlist_file, "--waveform", "ramp",
             "--rise-time", "1e-11", "--moments", "3", "--steps", "8",
             "--instances", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "RampInput(rise_time=1e-11" in out
        assert "# instances: 4" in out

    def test_pwl_waveform_parsing(self, netlist_file, capsys):
        code = main(
            ["transient", netlist_file, "--waveform", "pwl",
             "--pwl", "0:0,1e-11:1,3e-11:0.5", "--moments", "3",
             "--steps", "6", "--instances", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PWLInput" in out

    def test_bad_pwl_reports_error(self, netlist_file, capsys):
        code = main(
            ["transient", netlist_file, "--waveform", "pwl", "--pwl", "junk",
             "--moments", "3", "--steps", "4"]
        )
        assert code == 1
        assert "bad PWL point" in capsys.readouterr().err

    def test_sine_waveform_and_explicit_horizon(self, netlist_file, capsys):
        code = main(
            ["transient", netlist_file, "--waveform", "sine",
             "--frequency", "1e10", "--t-final", "5e-10", "--moments", "3",
             "--steps", "10", "--instances", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "SineInput" in out
        last_time = float(out.strip().splitlines()[-1].split(",")[0])
        assert last_time == pytest.approx(5e-10)

    def test_backward_euler_method(self, netlist_file, capsys):
        code = main(
            ["transient", netlist_file, "--method", "backward_euler",
             "--moments", "3", "--steps", "6", "--instances", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "method: backward_euler" in out

    def test_matches_api_envelope(self, netlist_file, capsys):
        """CLI numbers equal a direct engine transient study."""
        from repro.circuits.generators import with_random_variations
        from repro.circuits.parser import parse_netlist
        from repro.core import LowRankReducer
        from repro.runtime import CornerPlan, Study

        code = main(
            ["transient", netlist_file, "--plan", "corners", "--moments", "3",
             "--steps", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        parametric = with_random_variations(
            parse_netlist(NETLIST, title=netlist_file), 2, seed=0,
            relative_spread=0.5,
        )
        model = LowRankReducer(num_moments=3, rank=1).reduce(parametric)
        study = Study(model).scenarios(CornerPlan()).transient(num_steps=5).run()
        low, _, high = study.output_envelope()
        rows = [line for line in out.strip().splitlines()
                if not line.startswith(("#", "time_s"))]
        cli_low = np.array([float(r.split(",")[1]) for r in rows])
        cli_high = np.array([float(r.split(",")[3]) for r in rows])
        np.testing.assert_allclose(cli_low, low, rtol=1e-5, atol=1e-10)
        np.testing.assert_allclose(cli_high, high, rtol=1e-5, atol=1e-10)

    def test_bad_output_index(self, netlist_file, capsys):
        code = main(
            ["transient", netlist_file, "--moments", "3", "--output", "9",
             "--steps", "4"]
        )
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_pulse_needs_peak_reference(self, netlist_file, capsys):
        """A pulse settles to zero: steady delays are undefined, peak works."""
        pulse = ["transient", netlist_file, "--waveform", "pwl",
                 "--pwl", "0:0,1e-11:1,2e-11:0", "--t-final", "1e-10",
                 "--moments", "3", "--steps", "50", "--instances", "3"]
        assert main(pulse) == 0
        out = capsys.readouterr().out
        assert "undefined -- the stimulus settles to zero" in out
        assert main(pulse + ["--delay-reference", "peak"]) == 0
        out = capsys.readouterr().out
        assert "# delay(50% of peak):" in out
        assert "3/3 crossed" in out

    def test_memory_budget_streams_transient(self, netlist_file, capsys):
        argv = ["transient", netlist_file, "--plan", "corners", "--moments",
                "3", "--steps", "12"]
        assert main(argv) == 0
        one_shot = capsys.readouterr().out
        from repro.runtime import CornerPlan, Study

        # The planned peak of two-instance chunks, run-level terms included.
        budget = (
            Study(_reduced_model(netlist_file)).scenarios(CornerPlan())
            .transient(num_steps=12).chunk(2).plan().estimated_peak_bytes
        )
        assert main(argv + ["--memory-budget", str(budget)]) == 0
        tight = capsys.readouterr().out
        assert "# route: dense-stream" in tight
        csv = lambda text: [l for l in text.splitlines() if not l.startswith("#")]  # noqa: E731
        assert csv(tight) == csv(one_shot)

    def test_bad_threshold_reports_error(self, netlist_file, capsys):
        code = main(
            ["transient", netlist_file, "--moments", "3", "--steps", "4",
             "--threshold", "1.5", "--instances", "2"]
        )
        assert code == 1
        assert "threshold" in capsys.readouterr().err

    def test_delay_invariant_to_amplitude(self, netlist_file, capsys):
        """--amplitude scales the waveform, not the relative delay."""
        def delay_line(amplitude):
            assert main(
                ["transient", netlist_file, "--plan", "corners", "--moments",
                 "3", "--steps", "200", "--amplitude", amplitude]
            ) == 0
            out = capsys.readouterr().out
            return next(l for l in out.splitlines() if l.startswith("# delay"))

        assert delay_line("1.0") == delay_line("2.0")


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == repro.__version__


class TestDurableStore:
    """``--store`` / ``--resume`` on the study commands.

    The failure contract: store misuse exits with code 2 and a
    one-line ``error:`` diagnostic on stderr -- never a traceback.
    """

    BATCH = ["--plan", "montecarlo", "--instances", "8", "--moments", "3",
             "--points", "4", "--chunk", "2"]

    @staticmethod
    def _csv(text):
        return [line for line in text.splitlines() if not line.startswith("#")]

    def test_batch_resume_matches_one_shot_csv(self, netlist_file, tmp_path, capsys):
        argv = ["batch", netlist_file, *self.BATCH]
        assert main(argv) == 0
        one_shot = capsys.readouterr().out
        store = str(tmp_path / "store")
        assert main(argv + ["--store", store]) == 0
        first = capsys.readouterr().out
        assert "# store:" in first and "(resumed)" not in first
        assert "# instances: 8" in first
        assert main(argv + ["--store", store, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "(resumed)" in resumed
        # The resumed envelope CSV is bit-identical to the one-shot run.
        assert self._csv(resumed) == self._csv(one_shot)

    def test_transient_resume_matches_one_shot_csv(self, netlist_file, tmp_path, capsys):
        argv = ["transient", netlist_file, "--plan", "montecarlo", "--instances",
                "6", "--moments", "3", "--steps", "10", "--chunk", "2"]
        assert main(argv) == 0
        one_shot = capsys.readouterr().out
        store = str(tmp_path / "store")
        assert main(argv + ["--store", store]) == 0
        capsys.readouterr()
        assert main(argv + ["--store", store, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert self._csv(resumed) == self._csv(one_shot)

    def test_montecarlo_store_roundtrip(self, netlist_file, tmp_path, capsys):
        argv = ["montecarlo", netlist_file, "--instances", "6", "--moments", "3",
                "--poles", "2", "--tolerance", "1.0"]
        assert main(argv) == 0
        one_shot = capsys.readouterr().out
        store = str(tmp_path / "store")
        assert main(argv + ["--store", store, "--chunk", "2"]) == 0
        capsys.readouterr()
        assert main(argv + ["--store", store, "--chunk", "2", "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert self._csv(resumed) == self._csv(one_shot)

    def test_resume_with_missing_manifest_exits_2(self, netlist_file, tmp_path, capsys):
        code = main(["batch", netlist_file, *self.BATCH,
                     "--store", str(tmp_path / "empty"), "--resume"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: nothing to resume" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_resume_with_corrupt_manifest_exits_2(self, netlist_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["batch", netlist_file, *self.BATCH, "--store", store]
        assert main(argv) == 0
        capsys.readouterr()
        manifest = next((tmp_path / "store").glob("manifest-*.json"))
        manifest.write_text("{ definitely not json")
        code = main(argv + ["--resume"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: corrupt manifest" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_unwritable_store_directory_exits_2(self, netlist_file, tmp_path, capsys):
        # A path under a regular file cannot be created -- the portable
        # stand-in for a read-only directory (chmod is moot under root,
        # which is what CI containers run as).
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        code = main(["batch", netlist_file, *self.BATCH,
                     "--store", str(blocker / "store")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: store directory" in captured.err
        assert "not writable" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_resume_without_store_exits_2(self, netlist_file, capsys):
        code = main(["batch", netlist_file, *self.BATCH, "--resume"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: --resume requires --store" in captured.err

    @pytest.mark.parametrize("command", ["montecarlo", "batch", "transient"])
    def test_store_flags_registered_on_all_study_commands(self, command):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [command, "net.sp", "--store", "d", "--resume"]
        )
        assert args.store == "d" and args.resume


class TestWorkCommand:
    BATCH = ["--plan", "montecarlo", "--instances", "8", "--moments", "3",
             "--points", "4", "--chunk", "2"]

    @staticmethod
    def _csv(text):
        return [line for line in text.splitlines() if not line.startswith("#")]

    def test_single_worker_drains_and_matches_one_shot_csv(
        self, netlist_file, tmp_path, capsys
    ):
        assert main(["batch", netlist_file, *self.BATCH]) == 0
        one_shot = capsys.readouterr().out
        store = str(tmp_path / "store")
        argv = ["work", "batch", netlist_file, *self.BATCH, "--store", store,
                "--worker-id", "w1"]
        assert main(argv) == 0
        worked = capsys.readouterr().out
        assert "# worker: w1" in worked
        assert self._csv(worked) == self._csv(one_shot)
        assert list((tmp_path / "store").glob("manifest-*.worker-w1.json"))
        # A latecomer finds the store drained and prints the same CSV.
        assert main(["work", "batch", netlist_file, *self.BATCH,
                     "--store", store, "--worker-id", "w2"]) == 0
        late = capsys.readouterr().out
        assert "computed: 0" in late
        assert self._csv(late) == self._csv(one_shot)

    def test_max_chunks_splits_work_between_workers(
        self, netlist_file, tmp_path, capsys
    ):
        assert main(["batch", netlist_file, *self.BATCH]) == 0
        one_shot = capsys.readouterr().out
        store = str(tmp_path / "store")
        base = ["work", "batch", netlist_file, *self.BATCH, "--store", store]
        # Contributed-and-exited is a distinct status: the caller must
        # relaunch a worker to finish the study, so exit is 3, not 0.
        assert main(base + ["--worker-id", "w1", "--max-chunks", "2"]) == 3
        partial = capsys.readouterr().out
        assert "computed: 2" in partial
        assert "drained: no" in partial
        assert "no merged result" in partial
        assert self._csv(partial) == []  # stopped early: no CSV
        assert main(base + ["--worker-id", "w2"]) == 0
        finished = capsys.readouterr().out
        assert "computed: 2" in finished
        assert "drained: yes" in finished
        assert self._csv(finished) == self._csv(one_shot)

    def test_work_transient_max_chunks_exits_3(
        self, netlist_file, tmp_path, capsys
    ):
        argv = [netlist_file, "--plan", "montecarlo", "--instances", "6",
                "--moments", "3", "--steps", "10", "--chunk", "2"]
        store = str(tmp_path / "store")
        assert main(["work", "transient", *argv, "--store", store,
                     "--max-chunks", "1"]) == 3
        partial = capsys.readouterr().out
        assert "drained: no" in partial
        assert main(["work", "transient", *argv, "--store", store]) == 0
        assert "drained: yes" in capsys.readouterr().out

    def test_work_transient_matches_one_shot_csv(
        self, netlist_file, tmp_path, capsys
    ):
        argv = [netlist_file, "--plan", "montecarlo", "--instances", "6",
                "--moments", "3", "--steps", "10", "--chunk", "2"]
        assert main(["transient", *argv]) == 0
        one_shot = capsys.readouterr().out
        assert main(["work", "transient", *argv,
                     "--store", str(tmp_path / "store")]) == 0
        worked = capsys.readouterr().out
        assert self._csv(worked) == self._csv(one_shot)

    def test_work_montecarlo_matches_one_shot_output(
        self, netlist_file, tmp_path, capsys
    ):
        argv = [netlist_file, "--instances", "6", "--moments", "3",
                "--poles", "2", "--tolerance", "1.0"]
        assert main(["montecarlo", *argv]) == 0
        one_shot = capsys.readouterr().out
        assert main(["work", "montecarlo", *argv, "--chunk", "2",
                     "--store", str(tmp_path / "store")]) == 0
        worked = capsys.readouterr().out
        assert self._csv(worked) == self._csv(one_shot)

    @pytest.mark.parametrize("flag,value,message", [
        ("--ttl", "soon", "invalid --ttl"),
        ("--ttl", "0", "must be > 0"),
        ("--poll", "-1", "must be > 0"),
        ("--max-chunks", "2.5", "invalid --max-chunks"),
        ("--worker-id", "no spaces", "invalid worker id"),
    ])
    def test_bad_work_flags_exit_2_with_one_line(
        self, netlist_file, tmp_path, capsys, flag, value, message
    ):
        code = main(["work", "batch", netlist_file, *self.BATCH,
                     "--store", str(tmp_path / "store"), flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_work_requires_store_flag(self, netlist_file, capsys):
        with pytest.raises(SystemExit):
            main(["work", "batch", netlist_file, *self.BATCH])


def _stored_study_keys(store) -> list:
    """The study key of every manifest in ``store``, each once."""
    return sorted({json.loads(path.read_text())["study_key"]
                   for path in store.glob("manifest-*.json")})


WAVEFORMS = {
    "step": ([], {"kind": "step"}),
    "ramp": (["--waveform", "ramp", "--rise-time", "1e-11"],
             {"kind": "ramp", "rise_time": 1e-11}),
    "sine": (["--waveform", "sine", "--frequency", "1e10"],
             {"kind": "sine", "frequency": 1e10}),
    "pwl": (["--waveform", "pwl", "--pwl", "0:0,1e-11:1,3e-11:0.5"],
            {"kind": "pwl", "points": [[0, 0], [1e-11, 1], [3e-11, 0.5]]}),
}


class TestServerParity:
    """A study command and the equivalent job document land on the same
    study keys: the CLI declares through ``repro.serve.protocol``, so a
    CLI store and a served one answer for the same studies, and a CLI
    worker co-drains a served job."""

    @staticmethod
    def _assert_parity(tmp_path, netlist_file, flags, document):
        from repro.serve.protocol import parse_job, realize

        store = tmp_path / "store"
        argv = [*flags[:2 if flags[0] == "work" else 1], netlist_file,
                *flags[2 if flags[0] == "work" else 1:],
                "--moments", "3", "--chunk", "2", "--store", str(store)]
        assert main(argv) == 0
        expected = realize(parse_job(
            {"netlist": NETLIST, "moments": 3, "chunk": 2, **document}))
        assert _stored_study_keys(store) == sorted(expected.study_keys)

    @pytest.mark.parametrize("flags, plan", [
        (["--instances", "4"], {"kind": "montecarlo", "instances": 4}),
        (["--plan", "corners", "--magnitude", "0.2"],
         {"kind": "corners", "magnitude": 0.2}),
        (["--plan", "grid", "--grid-points", "2"],
         {"kind": "grid", "points": 2}),
    ], ids=["montecarlo", "corners", "grid"])
    def test_batch(self, tmp_path, netlist_file, capsys, flags, plan):
        self._assert_parity(
            tmp_path, netlist_file,
            ["batch", *flags, "--fmin", "1e8", "--points", "5"],
            {"plan": plan,
             "workload": {"kind": "sweep", "fmin": 1e8, "points": 5}})

    @pytest.mark.parametrize("horizon", [None, 3e-10], ids=["default", "t-final"])
    @pytest.mark.parametrize("waveform", sorted(WAVEFORMS))
    def test_transient(self, tmp_path, netlist_file, capsys, waveform,
                       horizon):
        flags, spec = WAVEFORMS[waveform]
        if horizon is not None:
            flags = [*flags, "--t-final", str(horizon)]
        self._assert_parity(
            tmp_path, netlist_file,
            ["transient", "--plan", "corners", "--steps", "8", *flags],
            {"plan": {"kind": "corners"},
             "workload": {"kind": "transient", "steps": 8, "t_final": horizon,
                          "waveform": spec}})

    @pytest.mark.parametrize("command", [["montecarlo"], ["work", "montecarlo"]],
                             ids=["montecarlo", "work-montecarlo"])
    def test_montecarlo(self, tmp_path, netlist_file, capsys, command):
        self._assert_parity(
            tmp_path, netlist_file,
            [*command, "--instances", "4", "--poles", "2", "--seed", "3"],
            {"plan": {"kind": "montecarlo", "instances": 4, "seed": 3},
             "workload": {"kind": "montecarlo", "poles": 2}})

    def test_work_transient(self, tmp_path, netlist_file, capsys):
        self._assert_parity(
            tmp_path, netlist_file,
            ["work", "transient", "--plan", "grid", "--grid-points", "2",
             "--steps", "8", "--waveform", "ramp", "--rise-time", "1e-11"],
            {"plan": {"kind": "grid", "points": 2},
             "workload": {"kind": "transient", "steps": 8,
                          "waveform": {"kind": "ramp", "rise_time": 1e-11}}})


class TestQuery:
    def test_outliers_k_zero_is_empty_and_negative_exits_2(
            self, netlist_file, tmp_path, capsys):
        store, wh = str(tmp_path / "store"), str(tmp_path / "wh")
        assert main(["transient", netlist_file, "--moments", "3",
                     "--instances", "6", "--steps", "12", "--chunk", "3",
                     "--store", store]) == 0
        assert main(["query", "ingest", wh, store]) == 0
        capsys.readouterr()
        outliers = ["query", "outliers", wh, "--metric", "delay", "-k"]
        assert main(outliers + ["0"]) == 0
        assert json.loads(capsys.readouterr().out) == []
        for k in ("-1", "-5"):
            assert main(outliers + [k]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert captured.err.count("\n") == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_netlist_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sp"
        bad.write_text("Q1 a b c\n.port P a\n")
        assert main(["info", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "reduce", "poles", "batch", "transient", "montecarlo",
    ])
    @pytest.mark.parametrize("text", [
        "C1 a 0 1p\n.port p a\n", ".port p a\n", "R1 a 0 1k\n.port p b\n",
    ], ids=["capacitor-only", "port-only", "floating-port"])
    def test_node_without_dc_path_is_one_error_line(
            self, tmp_path, capsys, command, text):
        """A node with no resistive path to ground makes G singular:
        exit 1 with one ``error:`` line, not a SuperLU traceback."""
        path = tmp_path / "floating.sp"
        path.write_text(text)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "no resistive (DC) path to ground" in captured.err

    @pytest.mark.parametrize("text", [
        ".port p a\n", "R1 a 0 1k\n.port p b\n",
    ], ids=["port-only", "floating-port"])
    def test_sweep_of_node_without_any_path_is_one_error_line(
            self, tmp_path, capsys, text):
        """``repro sweep`` solves ``G + sC`` directly: a node with neither
        a resistor nor a capacitor makes every pencil singular."""
        path = tmp_path / "floating.sp"
        path.write_text(text)
        assert main(["sweep", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_new_commands_registered(self):
        from repro.cli import build_parser

        text = build_parser().format_help()
        assert "montecarlo" in text
        assert "batch" in text
        assert "transient" in text


class TestServeCommands:
    """The service-facing commands: serve / submit / jobs."""

    JOB = {
        "moments": 3,
        "plan": {"kind": "montecarlo", "instances": 4, "seed": 7},
        "workload": {"kind": "sweep", "points": 5},
        "chunk": 2,
    }

    @pytest.fixture
    def service_url(self, tmp_path):
        import asyncio
        import threading

        from repro.serve import StudyServer, StudySupervisor

        supervisor = StudySupervisor(tmp_path / "store", pool_size=1)
        server = StudyServer(supervisor, port=0)
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def _serve():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(server.start())
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        assert started.wait(10.0)
        yield server.url
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        supervisor.shutdown(wait=True)
        loop.close()

    def _job_file(self, tmp_path):
        import json

        path = tmp_path / "job.json"
        path.write_text(json.dumps({"netlist": NETLIST, **self.JOB}))
        return str(path)

    def test_submit_prints_result_document(self, service_url, tmp_path,
                                           capsys):
        import json

        assert main(["submit", service_url,
                     self._job_file(tmp_path)]) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["result"]["workload"] == "sweep"
        assert "# job:" in captured.err

    def test_submit_twice_reports_cached(self, service_url, tmp_path,
                                         capsys):
        job_file = self._job_file(tmp_path)
        assert main(["submit", service_url, job_file]) == 0
        first = capsys.readouterr()
        assert "cached: no" in first.err
        assert main(["submit", service_url, job_file]) == 0
        second = capsys.readouterr()
        assert "cached: yes" in second.err
        assert second.out == first.out  # byte-identical response

    def test_submit_watch_streams_events(self, service_url, tmp_path,
                                         capsys):
        assert main(["submit", service_url, self._job_file(tmp_path),
                     "--watch"]) == 0
        captured = capsys.readouterr()
        assert '"study.chunk"' in captured.err

    def test_submit_no_wait_prints_status(self, service_url, tmp_path,
                                          capsys):
        import json

        assert main(["submit", service_url, self._job_file(tmp_path),
                     "--no-wait"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["state"] in ("queued", "running", "done")

    def test_submit_malformed_job_exits_1(self, service_url, tmp_path,
                                          capsys):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"netlist": NETLIST}))
        assert main(["submit", service_url, str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_submit_connection_refused_exits_1(self, tmp_path, capsys):
        assert main(["submit", "http://127.0.0.1:9",
                     self._job_file(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_jobs_lists_and_inspects(self, service_url, tmp_path, capsys):
        assert main(["jobs", service_url]) == 0
        assert "# no jobs" in capsys.readouterr().out
        assert main(["submit", service_url,
                     self._job_file(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["jobs", service_url]) == 0
        listing = capsys.readouterr().out
        assert "done" in listing
        job_id = listing.split()[0]
        assert main(["jobs", service_url, "--job", job_id]) == 0
        assert f'"id": "{job_id}"' in capsys.readouterr().out


class TestNoOutputNet:
    @pytest.mark.parametrize("command", [
        ["poles"], ["montecarlo", "--instances", "4"],
    ], ids=["poles", "montecarlo"])
    def test_pole_commands_print_one_error_line(self, tmp_path, capsys, command):
        """A net with a source but no ``.port`` / ``.observe`` has no
        ``H[0, 0]``: one ``error:`` line and exit 1, not a traceback."""
        path = tmp_path / "no_output.sp"
        path.write_text("V1 a 0\nR1 a 0 1\nC1 a 0 1p\n")
        assert main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: dominant poles")
