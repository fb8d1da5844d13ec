//go:build linux || darwin

package csr

import (
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// guardedWords copies words into a read-only anonymous mapping that ends
// exactly where a PROT_NONE guard page begins, so a read one word past the
// last faults instead of passing — the position a section of a mapped
// container can be in.
func guardedWords(t testing.TB, words []uint64) []uint64 {
	t.Helper()
	if len(words) == 0 {
		return nil
	}
	page := os.Getpagesize()
	data := (8*len(words) + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test teardown; nothing to report to
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect guard: %v", err)
	}
	view := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[data-8*len(words)])), len(words))
	copy(view, words)
	if err := syscall.Mprotect(mem[:data], syscall.PROT_READ); err != nil {
		t.Fatalf("mprotect data: %v", err)
	}
	return view
}
