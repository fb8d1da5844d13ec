//go:build linux || darwin

package bitarray

import (
	"syscall"
	"testing"
	"unsafe"
)

// readOnlyWords copies words into an anonymous mapping and drops its write
// permission, as the kernel maps a container section: a kernel that stores
// through it faults instead of passing.
func readOnlyWords(t testing.TB, words []uint64) []uint64 {
	t.Helper()
	if len(words) == 0 {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, 8*len(words), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test teardown; nothing to report to
	ro := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(words))
	copy(ro, words)
	if err := syscall.Mprotect(mem, syscall.PROT_READ); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return ro
}
