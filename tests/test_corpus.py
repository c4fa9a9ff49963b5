"""The command corpus: every command of ``corpus.txt``, run in-process in an
empty directory, prints what ``corpus_digests.txt`` records for it, its exit
code, the sha256 of its stdout, its stderr and the sha256 of each file it
writes.

The diff of the digests file is the exact output change of a commit.  When
output moves on purpose, rewrite it with

    PYTHONPATH=src python tests/test_corpus.py

and name each command whose digests changed, with its reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import shlex
import tempfile
from pathlib import Path

from lasergate.cli import main

CORPUS = Path(__file__).with_name("corpus.txt")
DIGESTS = Path(__file__).with_name("corpus_digests.txt")


class _Sha256Writer:
    """A text stream that keeps only the sha256 of the UTF-8 text written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self.hash.update(text.encode())
        return len(text)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def flush(self) -> None:
        pass


def commands():
    """(line, argv) of each command of the corpus, a ``lasergate ...`` line
    split as a shell would split it; ``#`` lines and blank lines are skipped."""
    for line in CORPUS.read_text().splitlines():
        if line and not line.startswith("#"):
            yield line, shlex.split(line)[1:]


def outcome(argv: list, directory: Path) -> list:
    """The digest lines of one run of ``argv`` in the empty ``directory``,
    which is left empty again."""
    out, err = _Sha256Writer(), io.StringIO()
    with contextlib.chdir(directory), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    lines = [f"exit {code}", f"stdout {out.hash.hexdigest()}",
             f"stderr {json.dumps(err.getvalue())}"]
    for path in sorted(directory.iterdir()):
        with open(path, "rb") as fh:
            lines.append(f"file {path.name} {hashlib.file_digest(fh, 'sha256').hexdigest()}")
        path.unlink()
    return lines


def recorded() -> dict:
    """The digest lines of each command, as ``corpus_digests.txt`` holds them:
    the command's line, then its digest lines, each indented by two spaces."""
    digests = {}
    for line in DIGESTS.read_text().splitlines():
        if line.startswith("  "):
            digests[command].append(line[2:])
        else:
            command = line
            digests[command] = []
    return digests


def test_corpus_and_digests_list_the_same_commands():
    assert [line for line, _ in commands()] == list(recorded())


def test_every_command_prints_its_recorded_digests(tmp_path):
    expected = recorded()
    differing = []
    for line, argv in commands():
        got = outcome(argv, tmp_path)
        if got != expected.get(line):
            differing.append(f"{line}\n  recorded: {expected.get(line)}\n  now:      {got}")
    assert not differing, f"{len(differing)} commands differ:\n" + "\n".join(differing)


def write_digests() -> None:
    """Rewrite ``corpus_digests.txt`` from a run of every corpus command."""
    with tempfile.TemporaryDirectory() as directory:
        blocks = [f"{line}\n" + "".join(f"  {field}\n" for field in outcome(argv, Path(directory)))
                  for line, argv in commands()]
    DIGESTS.write_text("".join(blocks))


if __name__ == "__main__":
    write_digests()
