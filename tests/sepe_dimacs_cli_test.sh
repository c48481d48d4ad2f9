#!/usr/bin/env bash
# sepe-dimacs input contract: a literal beyond +-2^30 (the most
# variables a sat::Lit can index) is an input error, exit 1 with a
# diagnostic — never a narrowed literal and a wrong answer.
#
# Usage: sepe_dimacs_cli_test.sh /path/to/sepe-dimacs
set -u

DIMACS=${1:?usage: sepe_dimacs_cli_test.sh /path/to/sepe-dimacs}
fail=0

# expect CODE NAME INPUT: feed INPUT on stdin, require exit CODE.
expect() {
  local want=$1 name=$2 input=$3 got
  printf '%b' "$input" | "$DIMACS" > /dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $name: exit $got, expected $want"
    fail=1
  fi
}

expect 10 "in-range unit clause" 'p cnf 1 1\n1 0\n'
expect 20 "in-range contradiction" 'p cnf 1 2\n1 0\n-1 0\n'
# Every out-of-range input here stays cheap if the range check regressed:
# 2^32 narrows to variable -1 through an int cast, 2^32 + 1 to literal 1.
# (A literal just past 2^30 would instead allocate 2^30 variables.)
expect 1 "literal 2^32" 'p cnf 1 1\n4294967296 0\n'
expect 1 "literal 2^32 + 1" 'p cnf 1 1\n4294967297 0\n'
expect 1 "negative literal -2^32" 'p cnf 1 1\n-4294967296 0\n'
expect 1 "literal beyond long" 'p cnf 1 1\n99999999999999999999 0\n'

[ "$fail" -eq 0 ] && echo "ok: sepe-dimacs rejects out-of-range literals"
exit "$fail"
