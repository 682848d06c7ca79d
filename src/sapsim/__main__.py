import gc
import sys

from .cli import main

code = main()
gc.freeze()   # so that shutdown skips walking every object: about 20 ms
sys.exit(code)
