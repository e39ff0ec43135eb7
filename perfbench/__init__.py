"""Closed-loop benchmark of the PADRe blocks; ``python3 perfbench/run.py --help``.

This package must import nothing at load time: ``run.py`` pins the BLAS thread
pools through environment variables before numpy is first imported.
"""
