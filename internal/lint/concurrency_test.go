package lint_test

import (
	"testing"

	"edgeis/internal/lint"
	"edgeis/internal/lint/analysistest"
)

func TestLockBalance(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.LockBalance, "lockbal")
}

func TestLockBlock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.LockBlock, "lockblk")
}

func TestGoroLeak(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.GoroLeak, "edge", "oneshot")
}

func TestWgAdd(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.WgAdd, "wgfix")
}
