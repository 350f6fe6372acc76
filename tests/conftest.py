import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    """Hypothesis caches what it reads from the sources in its home
    directory, ``.hypothesis`` in the working directory by default, even
    without an example database, and reads them at collection; give it a
    temporary home that goes with the session."""
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
