"""Transport problem instances and their on-disk JSON format."""

from __future__ import annotations

import io
import json
import os
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    ConfigurationError,
    DensitySpec,
    DiscreteMeasure,
    Grid,
    extreal_from_json,
    extreal_to_json,
    malformed,
)
from .costs import (
    CostDescriptor,
    descriptor_from_json,
    descriptor_to_json,
    discretize_cost,
)


@dataclass(frozen=True)
class Instance:
    """A transport problem on the unit square with marginal densities.

    ``known_rectified`` and ``known_values`` carry closed forms attached to
    the instance (see the catalog); they are inputs, never computed here.
    ``modification`` records an applied null-set cost override for the file
    format (the override regions are already baked into ``cost``).
    """

    name: str
    marginal_x: DensitySpec
    marginal_y: DensitySpec
    cost: CostDescriptor
    known_rectified: CostDescriptor | None = None
    known_values: dict | None = None
    modification: dict | None = None


def discretize(
    instance: Instance, n: int
) -> tuple[np.ndarray, DiscreteMeasure, DiscreteMeasure]:
    """Grid realization: cost matrix plus both marginal measures at resolution n.

    Equal densities give one (frozen) measure, returned for both sides.
    """
    grid = Grid(n)
    C = discretize_cost(instance.cost, grid)
    mu = DiscreteMeasure.from_density(instance.marginal_x, grid)
    if instance.marginal_y != instance.marginal_x:
        return C, mu, DiscreteMeasure.from_density(instance.marginal_y, grid)
    return C, mu, mu


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


def instance_to_json_dict(inst: Instance) -> dict:
    d = {
        "name": inst.name,
        "marginal_x": inst.marginal_x.to_json_dict(),
        "marginal_y": inst.marginal_y.to_json_dict(),
        "cost": descriptor_to_json(inst.cost),
    }
    if inst.known_rectified is not None:
        d["known_rectified"] = descriptor_to_json(inst.known_rectified)
    if inst.known_values is not None:
        d["known_values"] = {
            k: extreal_to_json(v) for k, v in sorted(inst.known_values.items())
        }
    if inst.modification is not None:
        d["modification"] = inst.modification
    return d


def instance_from_json_dict(d: dict) -> Instance:
    with malformed("instance document"):
        known_values = None
        if "known_values" in d:
            known_values = {
                k: extreal_from_json(v) for k, v in d["known_values"].items()
            }
        return Instance(
            name=str(d["name"]),
            marginal_x=DensitySpec.from_json_dict(d["marginal_x"]),
            marginal_y=DensitySpec.from_json_dict(d["marginal_y"]),
            cost=descriptor_from_json(d["cost"]),
            known_rectified=(
                descriptor_from_json(d["known_rectified"])
                if "known_rectified" in d
                else None
            ),
            known_values=known_values,
            modification=d.get("modification"),
        )


def dumps_instance(inst: Instance) -> str:
    """Canonical serialization (sorted keys) so round-trips are byte-exact."""
    return json.dumps(instance_to_json_dict(inst), sort_keys=True, indent=2) + "\n"


def loads_instance(text: str) -> Instance:
    try:
        return instance_from_json_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"instance file is not valid JSON: {exc}") from exc


def write_text_files(files) -> None:
    """Write each ``(path, text)`` of ``files`` with ``Path.write_text``'s
    encoding and newline handling, rewriting an existing file in place, and
    open every path before writing any.

    A file is opened without ``O_TRUNC`` and, when it is a regular file, cut
    to the written length afterwards, so ext4's ``auto_da_alloc`` does not
    start its write-back on close.  A stream (``/dev/null``, ``/dev/stdout``,
    a FIFO) cannot be truncated and is only written; a symlink is written
    through.  A path that cannot be opened or written raises
    :class:`ConfigurationError` naming it; when a path cannot be opened, no
    file has been written, and the files this call created are removed
    again."""
    handles, created = [], []  # created: a symlink's new target, not the link
    try:
        for k, (path, _) in enumerate(files):
            # only a file opened before the one that fails may need removing
            new = k + 1 < len(files) and not os.path.exists(path)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            handles.append(open(fd, "w", encoding=io.text_encoding(None)))
            if new:
                created.append(os.path.realpath(path))
    except OSError as exc:
        for fh in handles:
            fh.close()
        for p in created:
            os.unlink(p)
        raise ConfigurationError(f"cannot write {str(path)!r}: {exc}") from exc
    try:
        for fh, (path, text) in zip(handles, files):
            with fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
    except OSError as exc:
        raise ConfigurationError(f"cannot write {str(path)!r}: {exc}") from exc
    finally:
        for fh in handles:
            fh.close()


def save_instance(inst: Instance, path: str | Path) -> None:
    write_text_files([(path, dumps_instance(inst))])


def load_instance(path: str | Path) -> Instance:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            f"cannot read instance file {str(path)!r}: {exc}"
        ) from exc
    return loads_instance(text)
