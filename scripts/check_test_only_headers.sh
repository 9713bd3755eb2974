#!/usr/bin/env bash
# Fail when a src/ header is included by nothing in src/, bench/ or
# examples/ except its own .cpp. Such a module is code only tests call:
# delete it, or give it a product caller.
#
# Usage: scripts/check_test_only_headers.sh   (from any directory)
set -euo pipefail

cd "$(dirname "$0")/.."

status=0
while IFS= read -r header; do
  rel=${header#src/}
  own=${header%.hpp}.cpp
  includers=$(grep -rlF --include='*.cpp' --include='*.hpp' \
    "#include \"$rel\"" src bench examples | grep -vxF "$own" || true)
  if [ -z "$includers" ]; then
    echo "test-only header: $rel (no includer in src/, bench/ or examples/)"
    status=1
  fi
done < <(find src -name '*.hpp' | sort)
exit "$status"
