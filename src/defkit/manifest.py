"""Run manifests: configuration and input digests for reproducible runs."""

from __future__ import annotations

import datetime
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__

MANIFEST_NAME = "manifest.json"


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def config_digest(config: dict) -> str:
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    command_line: str
    config: dict
    input_digests: dict[str, str]
    seeds: list[int]
    toolkit_version: str = __version__
    timestamp: str = ""
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = (
                datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
            )

    def to_dict(self) -> dict:
        return {
            "command_line": self.command_line,
            "config": self.config,
            "config_digest": config_digest(self.config),
            "input_digests": self.input_digests,
            "seeds": self.seeds,
            "toolkit_version": self.toolkit_version,
            "timestamp": self.timestamp,
            "extra": self.extra,
        }

    def write(self, out_dir: str | Path) -> Path:
        path = Path(out_dir) / MANIFEST_NAME
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path
