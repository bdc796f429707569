"""Trace persistence: save/load programs as compressed ``.npz`` archives."""

import json
import zipfile

import numpy as np

from repro.errors import TraceError
from repro.trace.ops import Program, Trace


def save_program(program, path):
    """Write a :class:`~repro.trace.ops.Program` to ``path`` (.npz)."""
    arrays = {}
    for proc, trace in enumerate(program.traces):
        arrays[f"gaps_{proc}"] = trace.gaps
        arrays[f"kinds_{proc}"] = trace.kinds
        arrays[f"addrs_{proc}"] = trace.addrs
    header = {
        "name": program.name,
        "n_procs": program.n_procs,
        "home": program.home,
        "meta": program.meta,
    }
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


def load_program(path):
    """Load a program previously written with :func:`save_program`.

    A ``path`` that cannot be read raises :class:`OSError`; a file that is
    not a saved program raises :class:`TraceError`.
    """
    # numpy leaves a path it opened unclosed when the zip is broken, so
    # the file is opened here.
    with open(path, "rb") as handle:
        try:
            archive = np.load(handle)
        except (ValueError, EOFError, zipfile.BadZipFile):  # not .npy or .npz
            archive = None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise TraceError(f"{path} is not a saved program (not an .npz archive)")
        with archive:
            if "header" not in archive:
                raise TraceError(f"{path} is not a saved program (missing header)")
            header = json.loads(bytes(archive["header"]).decode())
            traces = []
            for proc in range(header["n_procs"]):
                traces.append(
                    Trace(
                        archive[f"gaps_{proc}"],
                        archive[f"kinds_{proc}"],
                        archive[f"addrs_{proc}"],
                    )
                )
    return Program(header["name"], traces, home=header["home"], meta=header["meta"])
