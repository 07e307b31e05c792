#!/usr/bin/env bash
# Script-level check of README's train-once-then-reuse workflow: mfa_cli
# trains a predictor and saves it, then a flow run loads that checkpoint.
# Both commands must exit 0, and the flow must report the load.
# Usage: cli_train_then_flow_test.sh <path-to-mfa_cli> <checkpoint path>
set -euo pipefail

BIN="${1:?usage: cli_train_then_flow_test.sh <mfa_cli binary> <checkpoint>}"
CKPT="${2:?usage: cli_train_then_flow_test.sh <mfa_cli binary> <checkpoint>}"
out="$(mktemp)"
trap 'rm -f "${out}"' EXIT

fail() {
  echo "cli_train_then_flow_test: $1" >&2
  echo "--- mfa_cli output ---" >&2
  cat "${out}" >&2
  exit 1
}

rm -f "${CKPT}"
echo "[1/2] mfa_cli train (1 placement, 1 epoch)"
"${BIN}" train Design_116 "${CKPT}" 1 1 >"${out}" 2>&1 ||
  fail "train exited $?"
[ -f "${CKPT}" ] || fail "train wrote no checkpoint"

echo "[2/2] mfa_cli flow with the saved model"
"${BIN}" flow Design_116 ours "${CKPT}" >"${out}" 2>&1 ||
  fail "flow exited $?"
grep -q "loaded model from" "${out}" || fail "flow did not load the checkpoint"

echo "cli_train_then_flow_test: passed"
