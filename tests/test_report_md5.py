import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "report_md5.py"


def load_script(monkeypatch):
    # the script pins OPENBLAS_NUM_THREADS as it loads; setenv undoes that
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.spec_from_file_location("report_md5", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_cell_lists_every_output_of_every_command(tmp_path, monkeypatch):
    script = load_script(monkeypatch)
    monkeypatch.chdir(tmp_path)
    config = script.CONFIG + "scheme = em\nseed = 0\n"
    entries, codes = script.run_cell("cell", config)
    assert codes == [0] * len(script.COMMANDS)
    names = [name for name, _ in entries]
    # 3 bundle files, 4 of train, 1 of eval, 4 of ood, 7 of verify, 1 of gradcheck
    assert len(names) == len(set(names)) == 3 * len(script.COMMANDS) + 20
    assert "cell/eval/eval.json" in names and "cell/train.stdout" in names
    # the config is an input, kept out of the manifest
    assert not any(name.endswith(".cfg") for name in names)
