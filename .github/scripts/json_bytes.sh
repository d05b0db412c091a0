#!/usr/bin/env bash
# Checks that the JSON output of the installed altforms script is the bytes of
# json.dumps(obj, indent=2) plus a newline, for every command that writes JSON.
# Run from anywhere once `altforms` is on PATH: bash .github/scripts/json_bytes.sh
set -eo pipefail
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
altforms rep case2_w > "$dir/case2_w.json"
same_as_json_dumps() {
  "$@" > "$dir/out"
  python -c "import json, sys; s = open(sys.argv[1]).read(); sys.exit(s != json.dumps(json.loads(s), indent=2) + '\n')" "$dir/out" \
    || { echo "not json.dumps(indent=2) bytes: $*"; exit 1; }
}
same_as_json_dumps altforms rep case2_w
for cmd in stab fixed invariant classify; do
  same_as_json_dumps altforms "$cmd" "$dir/case2_w.json"
done
same_as_json_dumps altforms verify
same_as_json_dumps altforms octonion table "$dir/case2_w.json"
# float-bearing outputs: perturbation certificates and a basis search
python -c 'import itertools, json; print(json.dumps({"case": 2, "values": {",".join(map(str, k)): 0.5 * (-1) ** sum(k) for k in itertools.combinations(range(1, 7), 3)}}))' > "$dir/t2.json"
echo '{"case": 3, "n": 2, "values": {"1,2": 0.25, "1,3": 0.0, "2,3": -1.0}}' > "$dir/t3.json"
altforms rep case3_w --n 2 > "$dir/case3_w.json"
same_as_json_dumps altforms perturb case2 "$dir/t2.json" --epsilon 0.1
same_as_json_dumps altforms perturb case3 "$dir/t3.json" --epsilon 0.1
same_as_json_dumps altforms approximate "$dir/case3_w.json" "$dir/t3.json" --depth 2 --beam 8
same_as_json_dumps altforms approximate "$dir/case3_w.json" "$dir/t3.json" --depth 3 --beam 8 --both-sides
