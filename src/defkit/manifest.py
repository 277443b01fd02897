"""Run manifests: configuration and input digests for reproducible runs."""

from __future__ import annotations

import hashlib
import json
import shlex
import sys
import time
from pathlib import Path

from . import __version__
from ._jsontext import indented

MANIFEST_NAME = "manifest.json"


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def config_digest(config: dict) -> str:
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def write_manifest(
    out_dir: str | Path,
    config: dict,
    input_digests: dict[str, str],
    seeds: list[int],
    extra: dict | None = None,
) -> None:
    """Write `manifest.json` into out_dir: the command line of this process,
    the config and its digest, the input digests, the seeds, the toolkit
    version, the time, and `extra`."""
    manifest = {
        "command_line": shlex.join(sys.argv),
        "config": config,
        "config_digest": config_digest(config),
        "input_digests": input_digests,
        "seeds": seeds,
        "toolkit_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "extra": extra or {},
    }
    (Path(out_dir) / MANIFEST_NAME).write_text(indented(manifest) + "\n")
