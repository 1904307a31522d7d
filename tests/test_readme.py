import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import mdsolve
from mdsolve import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def plain_blocks() -> list:
    return re.findall(r"^```\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_every_command_line_example_parses():
    (block,) = [b for b in plain_blocks() if b.startswith("mdsolve ")]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    assert len(commands) == 8
    parser = cli.build_parser()
    for words in commands:
        assert words[0] == "mdsolve"
        parser.parse_args(words[1:])  # exits on an unknown flag or a bad value


def test_every_key_of_the_sweep_config_example_is_taken_by_sweep(tmp_path):
    (block,) = [b for b in plain_blocks() if b.startswith("# sweep.cfg\n")]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(block)
    config = cli._read_config(cfg)
    parser = cli.build_parser()
    args = parser.parse_args(["sweep"])
    cli._apply_config(args, config, cfg, parser)
    assert all(getattr(args, key) is not None for key in config)
    spec = cli._spec(args)  # the sweep it describes, not run
    assert (spec.mesh_sizes, spec.k_parallel_values) == ((16, 32, 64), (1e-4, 1.0, 1e4))


def test_python_dash_m_prints_the_help():
    src = str(Path(mdsolve.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run([sys.executable, "-m", "mdsolve", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: mdsolve ")
    for command in ("generate", "assemble", "solve", "sweep", "export", "import", "amg-stats"):
        assert command in run.stdout
