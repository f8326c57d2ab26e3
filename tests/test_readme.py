"""The README's examples run as written."""
import json
import re
from pathlib import Path

from cli_cases import DOCUMENTS, Case, run_in_process
from lieshear.cli import load_document

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(text: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_python_examples_print_what_their_comments_say():
    # the blocks run in order in one namespace, as a reader would paste them;
    # each `print(...)  # <expected>` line must print exactly <expected>
    blocks = fenced_blocks(README, "python")
    assert len(blocks) >= 3
    namespace: dict = {}
    for block in blocks:
        expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, flags=re.MULTILINE)
        printed: list[str] = []
        namespace["print"] = lambda *args: printed.append(" ".join(map(str, args)))
        exec(compile(block, "README.md", "exec"), namespace)
        assert expected and printed == expected


def test_algebra_document_examples_load(tmp_path):
    section = README.split("### Algebra documents", 1)[1].split("\n### ", 1)[0]
    documents = fenced_blocks(section, "json")
    assert len(documents) == 2
    for k, text in enumerate(documents):
        json.loads(text)
        path = tmp_path / f"doc{k}.alg"
        path.write_text(text, encoding="utf-8")
        g, info = load_document(str(path), None)
        assert g.jacobi_check().passed
        assert info["path"] == str(path)


def test_shell_examples_exit_0(tmp_path):
    # each example document is named with its text, as cli_cases.DOCUMENTS holds it
    names = re.findall(r"`(\w+)\.alg`", README.split("In the examples below", 1)[1].split("```", 1)[0])
    assert names == ["s5", "h3", "kahler6", "glm"]
    for name in names:
        assert " ".join(DOCUMENTS[name].split()) in " ".join(README.split()), name
    lines = [line for block in fenced_blocks(README, "sh")
             for line in block.replace("\\\n", " ").splitlines() if line.startswith("lieshear ")]
    assert len(lines) == 8
    for line in lines:
        name = re.search(r"(\w+)\.alg", line)[1]
        case = Case(line, name, line.removeprefix("lieshear ").replace(f"{name}.alg", "{doc}"))
        assert run_in_process(case, tmp_path) == [], line
