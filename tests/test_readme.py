"""The README's examples run as written."""
import json
import re
import shlex
from pathlib import Path

from lieshear.cli import load_document, main

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


# the documents the CLI examples name, as the README describes them
SHELL_DOCUMENTS = {
    "s5": "(51,52,53,2.54,0)",
    "h3": "(0,0,12)",
    "glm": "(3.17,27,2.37,3.74,75,2.76,0)",
    "k6": "(12,0,0,0,0,0)",
}


def test_shell_examples_exit_0(tmp_path, capsys):
    for name, text in SHELL_DOCUMENTS.items():
        assert f"`{name}.alg`" in README and f"`{text}`" in README
        (tmp_path / f"{name}.alg").write_text(text, encoding="utf-8")
    lines = [line for block in fenced_blocks(README, "sh")
             for line in block.replace("\\\n", " ").splitlines() if line.startswith("lieshear ")]
    assert len(lines) == 8
    for line in lines:
        argv = [str(tmp_path / arg) if arg.endswith(".alg") else arg for arg in shlex.split(line)[1:]]
        code = main(argv)
        assert (code, capsys.readouterr().err) == (0, ""), line
