"""Documentation rot guards: code shown in the docs must run.

Extracts and executes the Python snippets embedded in README.md and the
package docstring, so the first thing a new user tries is guaranteed to
work, and checks the configuration the docs show against the code.
"""

import ast
import dataclasses
import re
from pathlib import Path

import repro

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def python_blocks(markdown: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


class TestReadmeSnippets:
    def test_readme_quickstart_block_runs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        blocks = python_blocks(readme)
        assert blocks, "README lost its quickstart code block"
        namespace: dict = {}
        exec(compile(blocks[0], "README.md", "exec"), namespace)  # noqa: S102
        # The snippet builds a two-machine system and plays a move.
        system = namespace["system"]
        system.run_until_quiesced()
        system.check_all_invariants()

    def test_package_docstring_example_runs(self):
        doc = repro.__doc__ or ""
        # The docstring example is indented rest-style; re-extract it.
        lines = [
            line[4:]
            for line in doc.splitlines()
            if line.startswith("    ") and not line.strip().startswith(">>>")
        ]
        code = "\n".join(lines)
        assert "create_instance" in code
        namespace: dict = {}
        exec(compile(code, "repro.__doc__", "exec"), namespace)  # noqa: S102
        namespace["system"].check_all_invariants()

    def test_api_table_names_exist(self):
        """Every `api.<name>` the README's API table advertises exists."""
        readme = (REPO_ROOT / "README.md").read_text()
        from repro.core.guesstimate import Guesstimate

        for method in re.findall(r"`api\.(\w+)\(", readme):
            assert hasattr(Guesstimate, method), f"README advertises api.{method}"

    def test_documented_config_flags_exist(self):
        """Every keyword a ``RuntimeConfig(...)`` / ``SyncConfig(...)``
        call in README.md or docs/API.md passes is a field."""
        from repro.runtime.config import RuntimeConfig, SyncConfig

        known = {
            cls.__name__: {field.name for field in dataclasses.fields(cls)}
            for cls in (RuntimeConfig, SyncConfig)
        }
        checked = 0
        for doc in ("README.md", "docs/API.md"):
            for block in python_blocks((REPO_ROOT / doc).read_text()):
                for node in ast.walk(ast.parse(block)):
                    name = getattr(getattr(node, "func", None), "id", None)
                    if not isinstance(node, ast.Call) or name not in known:
                        continue
                    for keyword in node.keywords:
                        assert keyword.arg in known[name], (
                            f"{doc} shows {name}({keyword.arg}=...)"
                        )
                        checked += 1
        assert checked >= 5  # the durability example and the API section

    def test_documented_cluster_yaml_loads(self):
        """DEPLOY.md's cluster.yaml and the shipped example both load."""
        from repro.transport.config import (
            cluster_from_dict,
            expand_env,
            parse_simple_yaml,
        )

        deploy = (REPO_ROOT / "docs" / "DEPLOY.md").read_text()
        texts = re.findall(r"```yaml\n(.*?)```", deploy, flags=re.DOTALL)
        assert texts, "DEPLOY.md lost its cluster.yaml block"
        texts.append((REPO_ROOT / "examples" / "cluster" / "cluster.yaml").read_text())
        for text in texts:
            cluster = cluster_from_dict(parse_simple_yaml(expand_env(text, {})))
            assert cluster.master_id


class TestExampleScripts:
    def test_quickstart_example_runs(self, capsys):
        """The first script a new user runs must work end to end."""
        import runpy

        runpy.run_path(
            str(REPO_ROOT / "examples" / "quickstart.py"),
            run_name="__main__",
        )
        out = capsys.readouterr().out
        assert "invariants OK" in out
