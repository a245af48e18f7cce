#!/bin/sh
# Fails when a src/ header has no caller: no file outside its own
# module (the header and the .cpp of the same name) and tests/
# includes it. Such a module is code that only its own tests reach;
# it earns a caller or goes. Scans the checkout this script lives in:
#
#   tools/check_callers.sh
set -eu
cd "$(dirname "$0")/.."

status=0
for header in $(cd src && find . -name '*.hpp' | sed 's|^\./||' | sort); do
    own_cpp="src/${header%.hpp}.cpp"
    if ! grep -rlF --include='*.cpp' --include='*.hpp' \
            "#include \"$header\"" src bench tools examples perfbench |
        grep -vxF -e "src/$header" -e "$own_cpp" | grep -q .; then
        echo "no caller outside its module and tests/: src/$header"
        status=1
    fi
done
exit $status
