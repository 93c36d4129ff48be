import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ris_nfloc

SRC = str(Path(ris_nfloc.__file__).resolve().parents[1])


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted fails here, not
    # at a user's star import
    missing = [name for name in ris_nfloc.__all__ if not hasattr(ris_nfloc, name)]
    assert missing == []


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this package."""
    done = subprocess.run([sys.executable, "-c", code], timeout=120, check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    return done.stdout


def test_a_trial_does_not_import_numpy_ma():
    # numpy.ma costs every process about 1.2 MB of peak RSS; no convenience
    # call in the pipeline may bring it back
    code = (
        "import sys\n"
        "from ris_nfloc.config import ExperimentConfig\n"
        "from ris_nfloc.harness import run_trial\n"
        "cfg = ExperimentConfig(tile_count=16, subcarriers=256, spacing_hz=1.5625e6,"
        " frames=8)\n"
        "run_trial(cfg, 0)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _fresh_python(code).split() == ["False"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
def test_full_scale_trials_fault_in_no_fresh_pages():
    # with the malloc thresholds the package pins, each trial reuses the heap
    # pages of the last (about 1 minor fault per trial); with glibc's dynamic
    # thresholds its arrays were mmapped afresh, 800-900 faults per trial
    trials = 30
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from ris_nfloc.config import ExperimentConfig\n"
        "from ris_nfloc.harness import run_trial\n"
        "cfg = ExperimentConfig()\n"
        "seeds = [np.random.SeedSequence(cfg.seed, spawn_key=(0, t))"
        f" for t in range({trials} + 1)]\n"
        "run_trial(cfg, seeds[0])\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for s in seeds[1:]:\n"
        "    run_trial(cfg, s)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    faults = int(_fresh_python(code))
    assert faults < 20 * trials


# numpy's Python-level wrappers that a trial no longer calls: on a trial's
# arrays of 3 to 1024 elements their argument handling cost more than the
# ufunc, reduction or array method they forward to, which the trial calls
# directly (tests/test_numpy_identities.py pins each replacement)
_REMOVED_WRAPPERS = (
    "linalg.norm diff outer sinc angle atleast_1d swapaxes sum min argmin argmax"
    " argsort nonzero partition mean sort all any cumsum repeat"
)


def test_a_trial_calls_no_removed_numpy_wrapper():
    # one desk trial that labels shared groups (gap 0) and one full trial
    # that runs the pencil; the profiler sees every Python frame entered
    code = textwrap.dedent(f"""\
        import operator, sys
        import numpy as np
        import ris_nfloc
        from ris_nfloc.config import ExperimentConfig
        from ris_nfloc.harness import run_trial
        names = {_REMOVED_WRAPPERS!r}.split()
        codes = {{operator.attrgetter(n)(np)._implementation.__code__: n
                  for n in names}}
        package = ris_nfloc.__path__[0]
        called, reached = set(), set()
        def profile(frame, event, arg):
            if event != "call":
                return
            caller = frame.f_back
            if frame.f_code in codes and caller.f_code.co_filename.startswith(package):
                called.add(f"{{codes[frame.f_code]}} from {{caller.f_code.co_name}}")
            if frame.f_code.co_filename.startswith(package):
                reached.add(frame.f_code.co_name)
        desk = ExperimentConfig(tile_count=16, subcarriers=256, spacing_hz=1.5625e6,
                                frames=8, resolvability_margin=0.0)
        full = ExperimentConfig()
        desk.deployment, full.deployment  # built once per config, not per trial
        sys.setprofile(profile)
        run_trial(desk, np.random.SeedSequence(1, spawn_key=(0, 8)))
        run_trial(full, np.random.SeedSequence(1, spawn_key=(0, 0)))
        sys.setprofile(None)
        print(sorted(called))
        print(sorted({{"spl_sort", "_group_resolvable", "_pencil_groups",
                       "fim", "median"}} - reached))
        """)
    called, unreached = _fresh_python(code).splitlines()
    assert unreached == "[]"
    assert called == "[]"
