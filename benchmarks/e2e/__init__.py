"""End-to-end benchmark of the serving tier, cold search and designer edits.

See ``README.md`` in this directory.
"""
