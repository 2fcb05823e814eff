#!/usr/bin/env bash
# `adasearch search` on three 2^20-key files: uniform, zipf (heavy with
# duplicates) and one far outlier key. Each kernel must agree with the linear
# scan, interpolation must stay within its 2G = 42 probe bound, and the
# selector's trial must pick the kernel it picks today.
#
#     bash tools/big_search.sh
#
# Runs `python3 -m adasearch.cli` against this checkout's src/ (put ahead of
# any PYTHONPATH), in a temporary directory it removes on exit. About 11 s on
# a 2-CPU host.
set -eo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# an executable, not a shell function, so that `timeout` can run it too
mkdir bin
printf '#!/bin/sh\nexec python3 -m adasearch.cli "$@"\n' > bin/adasearch
chmod +x bin/adasearch
export PATH="$work/bin:$PATH"

echo "== search a 2^20-key file, loaded in one pass on this numpy"
adasearch gen --kind uniform --n 1048576 --seed 1 --out big.txt
# the one-pass read, not the line loop, on every numpy leg: a fall back would only be slower
python3 -c "from adasearch import dataset; import numpy as np; keys = dataset._read_canonical(open('big.txt', encoding='utf-8')); assert isinstance(keys, np.ndarray) and len(keys) == 1048576, keys"
member=$(sed -n 524288p big.txt)
absent=$(python3 -c "keys = set(map(int, open('big.txt'))); print(next(k for k in range(2**31, 2**32) if k not in keys))")
for target in "$member" "$absent"; do
  adasearch search --algorithm linear big.txt "$target" | grep -E '^(found|index):' > linear.txt
  cat linear.txt
  # the adaptive choice, then each scalar kernel over the dataset's view of its keys
  adasearch search big.txt "$target" | grep -E '^(found|index):' > adaptive.txt
  diff adaptive.txt linear.txt
  for algorithm in binary interpolation; do
    adasearch search --algorithm "$algorithm" big.txt "$target" | grep -E '^(found|index):' > "$algorithm.txt"
    diff "$algorithm.txt" linear.txt
  done
done
adasearch search big.txt "$member" | grep -x 'found: True'
adasearch search big.txt "$absent" | grep -x 'found: False'
# uniform keys: interpolation makes fewer probes in the selector's trial
adasearch search big.txt "$member" | grep -x 'selected: interpolation (fewer_probes)'

echo "== the scalar kernels on 2^20 zipf keys, which are heavy with duplicates"
adasearch gen --kind zipf --n 1048576 --seed 1 --out zipf.txt
member=$(sed -n 524288p zipf.txt)
absent=$(python3 -c "keys = set(map(int, open('zipf.txt'))); print(next(k for k in range(1, 2**31) if k not in keys))")
for target in "$member" "$absent"; do
  adasearch search --algorithm linear zipf.txt "$target" | grep '^found:' > linear.txt
  cat linear.txt
  for algorithm in binary interpolation; do
    adasearch search --algorithm "$algorithm" zipf.txt "$target" > out.txt
    cat out.txt
    grep '^found:' out.txt | diff - linear.txt
    # any occurrence of a duplicate may be returned: check the key at the index, not the index
    index=$(sed -n 's/^index: //p' out.txt)
    if [ "$index" -ge 0 ]; then
      test "$(sed -n "$((index + 1))p" zipf.txt)" = "$target"
    fi
  done
done
adasearch search zipf.txt "$member" | grep -x 'found: True'
adasearch search zipf.txt "$absent" | grep -x 'found: False'

echo "== interpolation stays within its probe bound on one far outlier key, and the trial picks binary there"
python3 -c "print(*range(2**20 - 1), 2**62, sep='\n')" > outlier.txt
for target in 1048573 524288; do
  timeout 60 adasearch search --algorithm interpolation outlier.txt "$target" > out.txt
  cat out.txt
  grep -x 'found: True' out.txt
  probes=$(sed -n 's/^probes: //p' out.txt)
  test "$probes" -le 42
done
# the selector's trial on these keys: 38.95 interpolation probes against binary's 19.69
timeout 60 adasearch search outlier.txt 524288 > out.txt
cat out.txt
grep -x 'selected: binary (not_fewer_probes)' out.txt

echo "ok"
