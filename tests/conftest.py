import os


def pytest_configure(config):
    # `pythonpath` in pyproject.toml puts src/ on this process's sys.path;
    # tests that start `python -m fedmm` need it in the children's too
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
