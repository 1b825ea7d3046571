"""Known-bad: ad-hoc output channels in a simulator subsystem (SIM040;
these cases were the separate rule SIM080)."""
import logging  # expect[SIM040]
import sys
import warnings

from logging import getLogger  # expect[SIM040]

log = logging.getLogger(__name__)  # expect[SIM040]


def transfer(flow):
    logging.info("flow %s started", flow)  # expect[SIM040]
    warnings.warn("link oversubscribed")  # expect[SIM040]
    sys.stderr.write(f"flow {flow} done\n")  # expect[SIM040]
    sys.stdout.write("progress: 50%\n")  # expect[SIM040]
    print("finished", file=sys.stderr)  # expect[SIM040]
    return flow
