"""Config files, text tables, deterministic output files and hashed manifests.

All file formats carry a version header line. CSV bodies are byte-identical
across runs with the same config and seed: floats print as %.17g and no
timestamps enter the tables (wall-clock lives only in the manifest).
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

CSV_FORMAT = "liyau-csv v1"
MANIFEST_FORMAT = "liyau-manifest v1"
ARTIFACT_VERSION = "0.1.0"

OUTDIR_ENV = "LIYAU_OUTDIR"


class ConfigError(ValueError):
    """Bad flags, unknown keys, or malformed config files (usage errors)."""


def resolve_outdir(flag_value=None) -> Path:
    out = flag_value or os.environ.get(OUTDIR_ENV) or "."
    return Path(out)


def read_config_file(path) -> dict:
    """key=value lines; # starts a comment; values stay strings."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    params = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        k, v = line.split("=", 1)
        params[k.strip()] = v.strip()
    return params


def read_table_text(text: str, fmt: str,
                    required: tuple = ()) -> tuple[dict, list]:
    """Header and rows of a versioned text table.

    '# key = value' lines fill the header, '# <fmt>' is the version line and
    any other comment is rejected; every other non-blank line is one row of
    whitespace-separated floats. A header lacking a required key is
    rejected, naming the key.
    """
    header = {}
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                header[k.strip()] = v.strip()
            elif body != fmt:
                raise ValueError(f"unrecognized {fmt} format line {body!r}")
            continue
        rows.append([float(tok) for tok in line.split()])
    missing = [k for k in required if k not in header]
    if missing:
        raise ValueError(f"{fmt} header lacks {', '.join(missing)}")
    return header, rows


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_csv(path, header, rows, comment: str | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {CSV_FORMAT}"]
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json_report(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def sha256_of(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class RunManifest:
    """End-of-run record: config echo, verdicts, and hashed file inventory."""

    config: dict
    verdicts: dict = dc_field(default_factory=dict)
    files: dict = dc_field(default_factory=dict)
    started: float = dc_field(default_factory=time.time)

    def register(self, path) -> Path:
        path = Path(path)
        self.files[path.name] = sha256_of(path)
        return path

    def write(self, outdir) -> Path:
        """Atomic write (tmp + rename) so no partial manifest survives a crash."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": MANIFEST_FORMAT,
            "artifact_version": ARTIFACT_VERSION,
            "config": self.config,
            "verdicts": self.verdicts,
            "files": self.files,
            "wall_clock_s": time.time() - self.started,
        }
        target = outdir / "manifest.json"
        tmp = outdir / ".manifest.json.tmp"
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, target)
        return target
