"""Session fixtures shared by the test modules."""

import importlib.util
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

KERNELS_C = Path(__file__).resolve().parent.parent / "src" / "flagstone" / "_kernels_c.c"


@pytest.fixture(scope="session")
def compiled_kernels(tmp_path_factory):
    """The C kernels built from this checkout's source into a temporary
    directory and imported, whether or not an installed build exists.

    Skips only when there is no C compiler or no Python.h; a source that
    fails to compile, or draws a warning under -Wall -Wextra, fails the
    tests that use it.
    """
    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
    include = sysconfig.get_paths()["include"]
    if shutil.which(link[0]) is None:
        pytest.skip(f"no C compiler: {link[0]} not found")
    if not (Path(include) / "Python.h").is_file():
        pytest.skip(f"no Python.h in {include}")
    target = tmp_path_factory.mktemp("kernels_c") / ("_kernels_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    flags = shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    done = subprocess.run([*link, *flags, "-O2", "-Wall", "-Wextra", "-Werror", f"-I{include}", str(KERNELS_C),
                           "-o", str(target)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    spec = importlib.util.spec_from_file_location("_kernels_c", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
