"""Run one recorded CLI job in this process and digest what it printed.

A job is its argv, the environment variables it sets, and its input files
inline ({name: text}).  The files are written into `workdir` and the job
runs there, so every path an error message quotes is the file's bare name.
Used by tests/test_golden.py (replay) and tests/golden/rewrite.py (record).
"""

import contextlib
import hashlib
import io
import os

from ffperiods.cli import main

# the variables that reach the CLI's output: omega's tower cap, and the
# terminal width that argparse wraps its usage line to
ENV_KEYS = ("FFP_TOWER_BOUND", "COLUMNS")


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_job(argv, env, files, workdir):
    """(exit code, stdout, stderr) of `ffperiods argv` run in `workdir`."""
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    saved_env = {k: os.environ.get(k) for k in ENV_KEYS}
    saved_cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        for k in ENV_KEYS:
            os.environ.pop(k, None)
        os.environ.update(env)
        os.chdir(workdir)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    finally:
        os.chdir(saved_cwd)
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


def replay(record, workdir):
    """The record's (exit, stdout_sha256, stderr_sha256) as run now."""
    code, out, err = run_job(record["argv"], record["env"], record["files"], workdir)
    return {"exit": code, "stdout_sha256": sha256(out), "stderr_sha256": sha256(err)}
