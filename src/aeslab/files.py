"""Artifact files that are either written whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, Iterator, Union


@contextmanager
def atomic_write(path: Union[str, Path], **open_args) -> Iterator[IO[str]]:
    """Open a text file for writing that replaces path only once the block succeeds.

    The text goes to a new file in path's directory, which os.replace moves
    over path at the end; if the block raises, the new file is removed and
    an earlier file at path stays as it was. The new file is created with
    the same default permissions as open(path, "w") would give it.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", **open_args) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
