"""The compiled step kernel: build on first use, cache, load.

`step_kernel.c` holds the whole per-step update of `solver.step`.  It is
compiled through cffi into an extension module the first time a process
steps, and cached as
``$XDG_CACHE_HOME/sfase/_sfase_step_<hash><EXT_SUFFIX>`` (default
``~/.cache/sfase``).  The hash covers the C source, the cffi declarations,
the compile flags and the Python ABI, so a changed source or interpreter
builds afresh and an unchanged one loads in milliseconds.  The module is
compiled in a temporary directory and moved into place with `os.replace`,
so processes building at the same time each install a complete file.

Building needs a C compiler (``$CC``, else the one Python was built with)
and the Python headers.  Without them `load` raises `KernelError`; nothing
falls back to another integrator.
"""
from __future__ import annotations

import importlib.util
import os
import sys
import sysconfig
from importlib import resources
from pathlib import Path

SOURCE = "step_kernel.c"
CDEF = """
int sfase_step(int n, double dt, double dz, double gamma, double eta,
               double n_at, double sigma, double noise_prefactor,
               double jp_in, const double *pop, const double *coh,
               const double *omega, const double *jp, int noisy,
               uint64_t key0, uint64_t key1, uint64_t index, uint64_t istep,
               double *pop_new, double *coh_new, double *omega_new,
               double *jp_new);
const char *sfase_compiler(void);
"""
# the same IEEE double arithmetic on every host: no fused multiply-add, no
# -ffast-math, no -march=native
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC")
LDFLAGS = (("-bundle", "-undefined", "dynamic_lookup")
           if sys.platform == "darwin" else ("-shared",))


class KernelError(RuntimeError):
    """The step kernel cannot be built or loaded."""


# (lib, ffi) of the loaded kernel module
_loaded: tuple | None = None


def kernel_hash() -> str:
    """Hash of everything the built module depends on; it names the cache
    file and is recorded in run manifests."""
    # imported here, not at the top: importing sfase does not pay for them
    import hashlib

    import _cffi_backend

    key = hashlib.sha256()
    for part in (_source(), CDEF, " ".join(CFLAGS + LDFLAGS),
                 sysconfig.get_config_var("EXT_SUFFIX"),
                 sys.implementation.cache_tag, _cffi_backend.__version__):
        key.update(part.encode())
        key.update(b"\0")
    return key.hexdigest()[:16]


def module_path() -> Path:
    """Where the kernel module for this source and interpreter is cached."""
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    return cache / "sfase" / (f"_sfase_step_{kernel_hash()}"
                              f"{sysconfig.get_config_var('EXT_SUFFIX')}")


def load() -> tuple:
    """(lib, ffi) of the kernel module, built into the cache if needed."""
    global _loaded
    if _loaded is None:
        path = module_path()
        name = path.name.split(".")[0]
        if not path.exists():
            _build(name, path)
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except ImportError as err:
            raise KernelError(f"cannot load the step kernel {path}: {err}; "
                              f"delete the file to rebuild it") from err
        sys.modules[name] = module
        _loaded = module.lib, module.ffi
    return _loaded


def info() -> dict:
    """The loaded kernel's hash and the compiler that built it."""
    lib, ffi = load()
    return {"kernel": kernel_hash(),
            "compiler": ffi.string(lib.sfase_compiler()).decode()}


def _source() -> str:
    return (resources.files("sfase") / SOURCE).read_text()


def _build(name: str, path: Path) -> None:
    # only a cold cache needs these
    import shlex
    import subprocess
    import tempfile

    import cffi

    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    ffi.set_source(name, _source(), compiler_verbose=False)
    # $CC, else the compiler Python was built with
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC")
                     or "cc")
    include = {sysconfig.get_paths()[key] for key in ("include", "platinclude")}
    path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=path.parent, prefix=".build-") as tmp:
        c_file = Path(tmp) / f"{name}.c"
        built = Path(tmp) / path.name
        ffi.emit_c_code(str(c_file))
        cmd = [*cc, *CFLAGS, *(f"-I{d}" for d in sorted(include)),
               str(c_file), *LDFLAGS, "-o", str(built)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as err:
            raise KernelError(
                f"cannot build the step kernel: C compiler {cc[0]!r} cannot "
                f"be run ({err.strerror}); install a C compiler and the "
                f"Python headers, or point CC at one") from err
        if proc.returncode != 0:
            raise KernelError(
                f"cannot build the step kernel with C compiler {cc[0]!r} "
                f"(exit {proc.returncode}); it needs the Python headers in "
                f"{', '.join(sorted(include))}:\n{proc.stderr.strip()}")
        os.replace(built, path)
