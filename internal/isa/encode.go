package isa

import (
	"fmt"

	"res/internal/wire"
)

// Binary encoding of instruction streams. Each instruction is encoded as a
// fixed header (op + registers) followed by varint-encoded immediate and
// targets, followed by the symbol string. The format is versioned so dumps
// and program images can evolve independently.

const streamMagic = "RESISA01"

// MarshalStream returns the RESISA01 encoding of the instruction slice.
func MarshalStream(code []Instr) ([]byte, error) {
	e := wire.NewEncoder(streamMagic)
	e.Uvarint(uint64(len(code)))
	for i := range code {
		in := &code[i]
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("isa: encoding instruction %d: %w", i, err)
		}
		e.Raw([]byte{byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2)})
		e.Varint(in.Imm)
		e.Varint(int64(in.Target))
		e.Varint(int64(in.Target2))
		e.Str(in.Sym)
	}
	return e.Bytes(), nil
}
