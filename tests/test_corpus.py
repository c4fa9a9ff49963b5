"""The command corpus: every command of ``corpus.txt``, run in-process in an
empty directory, prints what ``corpus_digests.txt`` records for it, its exit
code, the sha256 of its stdout, its stderr and the sha256 of each file it
writes.  This is the one check of printed bytes; a new refusal is a corpus
line under a ``#`` line that gives its reason.

The diff of the digests file is the exact output change of a commit.  When
output moves on purpose, or a command is added, rewrite it with

    PYTHONPATH=src python tests/test_corpus.py

and name each command whose digests changed, with its reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import re
import shlex
import tempfile
from pathlib import Path

from lasergate.cli import RUNNERS, USAGE, main

CORPUS = Path(__file__).with_name("corpus.txt")
DIGESTS = Path(__file__).with_name("corpus_digests.txt")
README = Path(__file__).parents[1] / "README.md"
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


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


def test_every_refusal_prints_one_error_line_and_nothing_else(tmp_path):
    # a missing or unknown command is the one refusal that prints the usage line first
    expected = recorded()
    refused = [(line, argv) for line, argv in commands() if expected[line][0] != "exit 0"]
    assert refused
    empty = hashlib.sha256(b"").hexdigest()
    wrong = []
    for line, argv in refused:
        _, stdout, stderr, *files = outcome(argv, tmp_path)
        usage = USAGE if not argv or argv[0] not in RUNNERS else ""
        text = json.loads(stderr.removeprefix("stderr "))
        error = text.removeprefix(usage)
        if (stdout, files) != (f"stdout {empty}", []) or not text.startswith(usage) \
                or not error.startswith("error: ") or error.find("\n") != len(error) - 1:
            wrong.append(f"{line}\n  {stdout}\n  {stderr}\n  {files}")
    assert not wrong, f"{len(wrong)} refusals print more than one error line:\n" + "\n".join(wrong)


def readme_commands() -> list:
    """The ``lasergate`` lines of README.md's bash blocks, in order, each
    ``\\`` continuation joined and its ``#`` comment or ``| grep`` tail cut."""
    blocks = "".join(re.findall(r"^```bash\n(.*?)^```", README.read_text(), re.M | re.S))
    lines = blocks.replace("\\\n", " ").splitlines()
    return [" ".join(re.split(r" #|\| grep", line)[0].split())
            for line in lines if line.startswith("lasergate")]


def test_the_readme_and_ci_commands_are_corpus_lines():
    corpus = {line for line, _ in commands()}
    workflow = WORKFLOW.read_text()
    # each workflow line that runs lasergate on literal arguments
    literal = [m[1] for m in re.finditer(r"^ *(?:check \d+ )?(lasergate(?: .*)?)$", workflow, re.M)
               if "$" not in m[1]]
    readme = readme_commands()
    assert readme and literal
    assert [line for line in readme + literal if line not in corpus] == []
    # the standard-library step runs the README commands, no more and no fewer
    loop = re.search(r"for cmd in (.*?); do", workflow, re.S)[1]
    assert [f"lasergate {cmd}" for cmd in shlex.split(loop.replace("\\\n", " "))] == readme


def write_digests() -> None:
    """Rewrite ``corpus_digests.txt`` from a run of every corpus command."""
    with tempfile.TemporaryDirectory() as directory:
        blocks = [f"{line}\n" + "".join(f"  {field}\n" for field in outcome(argv, Path(directory)))
                  for line, argv in commands()]
    DIGESTS.write_text("".join(blocks))


if __name__ == "__main__":
    write_digests()
