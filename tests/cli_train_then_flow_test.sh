#!/usr/bin/env bash
# Script-level check of README's train-once-then-reuse workflow: mfa_cli
# trains a predictor and saves it, then a flow run and the serving driver
# each load that checkpoint. Every command must exit 0, and each consumer
# must report the load.
# Usage: cli_train_then_flow_test.sh <mfa_cli> <checkpoint path> <mfa_serve>
set -euo pipefail

USAGE="usage: cli_train_then_flow_test.sh <mfa_cli> <checkpoint> <mfa_serve>"
BIN="${1:?${USAGE}}"
CKPT="${2:?${USAGE}}"
SERVE="${3:?${USAGE}}"
out="$(mktemp)"
trap 'rm -f "${out}"' EXIT

fail() {
  echo "cli_train_then_flow_test: $1" >&2
  echo "--- command output ---" >&2
  cat "${out}" >&2
  exit 1
}

rm -f "${CKPT}"
echo "[1/3] mfa_cli train (1 placement, 1 epoch)"
"${BIN}" train Design_116 "${CKPT}" 1 1 >"${out}" 2>&1 ||
  fail "train exited $?"
[ -f "${CKPT}" ] || fail "train wrote no checkpoint"

echo "[2/3] mfa_cli flow with the saved model"
"${BIN}" flow Design_116 ours "${CKPT}" >"${out}" 2>&1 ||
  fail "flow exited $?"
grep -q "loaded model from" "${out}" || fail "flow did not load the checkpoint"

echo "[3/3] mfa_serve with the saved model"
MFA_SERVE_CLIENTS=2 MFA_SERVE_REQUESTS=4 MFA_SERVE_SWAP=0 \
  "${SERVE}" "${CKPT}" >"${out}" 2>&1 || fail "mfa_serve exited $?"
grep -q "loaded weights from" "${out}" ||
  fail "mfa_serve did not load the checkpoint"
grep -q "drained clean" "${out}" || fail "mfa_serve did not drain clean"

echo "cli_train_then_flow_test: passed"
