#!/bin/sh
# Counts code lines per directory: lines that are neither blank nor a
# `//`-only comment, over the C++ sources (*.cpp, *.hpp) below each
# directory. Block comments count as code; the sources use `//`.
#
#   scripts/code_lines.sh src/net src/mpp src
#
# prints one "<lines> <dir>" row per argument. Use it for a change's
# before/after so every report counts the same thing.
set -eu
if [ "$#" -eq 0 ]; then
  echo "usage: $0 <dir>..." >&2
  exit 2
fi
for dir in "$@"; do
  if [ ! -d "$dir" ]; then
    echo "$0: not a directory: $dir" >&2
    exit 2
  fi
  n=$(find "$dir" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
      xargs -0 cat /dev/null |
      grep -cEv '^[[:space:]]*(//.*)?$' || true)
  echo "$n $dir"
done
