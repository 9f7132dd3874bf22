"""Set-up of one CLI invocation: fresh interpreter, import, input read.

    python3 perfbench/setup_probe.py INPUT MODE

run.py times this script from outside, so the figure includes interpreter
start-up.  MODE is the CLI --mode; in gray mode a colour input is converted
to luma, as `polyseg segment` does.
"""

import sys

import polyseg as ps


def main(path, mode):
    img = ps.read_pnm(path)
    if mode == "gray" and img.colorspace == ps.RGB:
        img = ps.to_gray(img)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
