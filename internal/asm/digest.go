package asm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// Digest returns the SHA-256 of the program image as a hex string: entry
// point, text, data and both symbol tables, the maps in name order. Two
// programs with equal digests load and symbolize identically.
func (p *Program) Digest() string {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	u64(p.Entry)
	u64(p.TextBase)
	u64(uint64(len(p.Text)))
	for _, w := range p.Text {
		binary.LittleEndian.PutUint32(b[:4], uint32(w))
		h.Write(b[:4])
	}
	u64(p.DataBase)
	u64(uint64(len(p.Data)))
	h.Write(p.Data)
	names := make([]string, 0, len(p.SymbolMap))
	for name := range p.SymbolMap {
		names = append(names, name)
	}
	sort.Strings(names)
	u64(uint64(len(names)))
	for _, name := range names {
		str(name)
		u64(p.SymbolMap[name])
	}
	names = names[:0]
	for name, fn := range p.FuncSyms {
		if fn {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	u64(uint64(len(names)))
	for _, name := range names {
		str(name)
	}
	return hex.EncodeToString(h.Sum(nil))
}
