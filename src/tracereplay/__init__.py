"""Compile touch-detection traces of screen recordings into replayable
device input scripts, plus the synthetic-trace generator and metrics
used to verify the pipeline end to end.

Each public name is imported from its module (`tracereplay.codegen`,
`tracereplay.replay`, ...), so `import tracereplay` imports no
submodule. The package has no runtime dependency outside the standard
library.
"""
