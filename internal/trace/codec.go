package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// The on-disk trace format mirrors PROPANE's workflow of persisting
// Golden Run and injection-run traces for offline comparison:
//
//	magic   [4]byte  "PTRC"
//	version uint16   (1)
//	signals uint32   number of signals
//	samples uint32   samples per signal
//	per signal:
//	    nameLen uint16, name [nameLen]byte (UTF-8)
//	    values  [samples]uint16
//
// All integers are little-endian. Signals are stored in the trace's
// sorted order.

var traceMagic = [4]byte{'P', 'T', 'R', 'C'}

const traceVersion = 1

// maxTraceDim bounds decoded dimensions to keep a corrupted header
// from provoking huge allocations.
const maxTraceDim = 1 << 26

// WriteTo serialises the trace. It returns the number of bytes
// written.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	count := func(written int, err error) error {
		n += int64(written)
		return err
	}
	if err := count(bw.Write(traceMagic[:])); err != nil {
		return n, err
	}
	if err := count(writeUint16(bw, traceVersion)); err != nil {
		return n, err
	}
	if err := count(writeUint32(bw, uint32(len(t.signals)))); err != nil {
		return n, err
	}
	if err := count(writeUint32(bw, uint32(t.Len()))); err != nil {
		return n, err
	}
	for _, sig := range t.signals {
		if len(sig) > 0xFFFF {
			return n, fmt.Errorf("trace: signal name %q too long", sig[:32])
		}
		if err := count(writeUint16(bw, uint16(len(sig)))); err != nil {
			return n, err
		}
		if err := count(bw.Write([]byte(sig))); err != nil {
			return n, err
		}
		for _, v := range t.samples[sig] {
			if err := count(writeUint16(bw, v)); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadTrace deserialises a trace written by WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != traceMagic {
		return nil, errors.New("trace: not a PTRC trace file")
	}
	version, err := readUint16(br)
	if err != nil {
		return nil, err
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	nSignals, err := readUint32(br)
	if err != nil {
		return nil, err
	}
	nSamples, err := readUint32(br)
	if err != nil {
		return nil, err
	}
	if nSignals > maxTraceDim || nSamples > maxTraceDim {
		return nil, fmt.Errorf("trace: implausible dimensions %d×%d", nSignals, nSamples)
	}

	tr := &Trace{samples: make(map[string][]uint16, nSignals)}
	prev := ""
	for i := uint32(0); i < nSignals; i++ {
		nameLen, err := readUint16(br)
		if err != nil {
			return nil, err
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, fmt.Errorf("trace: reading signal name: %w", err)
		}
		name := string(nameBuf)
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("trace: signal names out of order (%q after %q)", name, prev)
		}
		if _, dup := tr.samples[name]; dup {
			return nil, fmt.Errorf("trace: duplicate signal %q", name)
		}
		prev = name
		values := make([]uint16, nSamples)
		for j := range values {
			v, err := readUint16(br)
			if err != nil {
				return nil, fmt.Errorf("trace: reading samples of %q: %w", name, err)
			}
			values[j] = v
		}
		tr.signals = append(tr.signals, name)
		tr.samples[name] = values
	}
	return tr, nil
}

// The integer helpers take the concrete buffered writer/reader and
// move bytes one at a time: handing a stack buffer to an io.Writer
// interface makes it escape, and writeUint16 runs once per trace
// sample — on the hot path of every golden trace digest, that was one
// heap allocation per sample.

func writeUint16(w *bufio.Writer, v uint16) (int, error) {
	if err := w.WriteByte(byte(v)); err != nil {
		return 0, err
	}
	if err := w.WriteByte(byte(v >> 8)); err != nil {
		return 1, err
	}
	return 2, nil
}

func writeUint32(w *bufio.Writer, v uint32) (int, error) {
	for i := 0; i < 4; i++ {
		if err := w.WriteByte(byte(v >> (8 * i))); err != nil {
			return i, err
		}
	}
	return 4, nil
}

func readUint16(r *bufio.Reader) (uint16, error) {
	b0, err := r.ReadByte()
	if err != nil {
		return 0, err
	}
	b1, err := r.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	return uint16(b0) | uint16(b1)<<8, nil
}

func readUint32(r *bufio.Reader) (uint32, error) {
	var v uint32
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		v |= uint32(b) << (8 * i)
	}
	return v, nil
}
