package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// A frame is one message on a connection:
//
//	[u32 payload length, little-endian][u8 protocol version][payload]
//
// It is written with one Write and read through the connection's one
// bufio.Reader, so a small exchange costs one system call each way. The
// header alone decides whether a frame is read at all: the version and the
// length are checked before a byte of payload is buffered.

const (
	// protocolVersion is the version byte of every frame. A peer speaking
	// another version is refused at the header, before its payload is
	// interpreted as something it is not.
	protocolVersion = 6

	// frameHeaderSize is the fixed prefix of every frame.
	frameHeaderSize = 5

	// maxFrameBytes caps one request frame — header and payload — on an
	// accepted connection; 8 MiB comfortably covers the largest legitimate
	// request in the workloads while stopping runaway frames. The cap is
	// exact: a frame of maxFrameBytes is served, one byte more is rejected
	// from its header alone and the connection closed (frames_rejected_total
	// counts it).
	maxFrameBytes = 8 << 20

	// readChunk is the least a payload buffer grows by. A buffer grows as
	// bytes arrive, never to a length a header merely claims, so a peer that
	// announces a huge frame and sends nothing costs one chunk.
	readChunk = 64 << 10
)

// ErrFrameTooLarge marks a frame that exceeded the connection's frame limit
// (or, on the sending side, the length field). The receiving server closes
// the connection without reading the payload and counts
// frames_rejected_total.
var ErrFrameTooLarge = errors.New("remote: frame exceeds maximum size")

// errProtocolVersion marks a frame header carrying an unknown version byte.
var errProtocolVersion = errors.New("remote: unknown protocol version")

// frameBufs pools the frame buffers: once a buffer has grown to the largest
// message in circulation, encoding into it allocates nothing.
var frameBufs = sync.Pool{New: func() any { return new(frameBuf) }}

// newFrame returns a pooled buffer holding a blank frame header, ready for
// the payload. The caller releases it once the frame has been written.
func newFrame() *frameBuf {
	w := frameBufs.Get().(*frameBuf)
	w.b = append(w.b[:0], 0, 0, 0, 0, protocolVersion)
	w.err = nil
	return w
}

// release returns the buffer to the pool. The point table and the mask go
// back empty: a pooled buffer must not keep a finished query's bound
// predicates or attribute names alive.
func (w *frameBuf) release() {
	clear(w.points)
	w.points = w.points[:0]
	w.mask.Reset(nil)
	frameBufs.Put(w)
}

// payloadLength converts a payload size to the header's length field,
// refusing one the field cannot hold rather than wrapping it.
func payloadLength(n int) (uint32, error) {
	if uint64(n) > math.MaxUint32 {
		return 0, fmt.Errorf("%w: a %d-byte payload does not fit the length field", ErrFrameTooLarge, n)
	}
	return uint32(n), nil
}

// send seals the frame — fills in the payload length — and writes it with
// one Write, returning the bytes written.
func (w *frameBuf) send(conn io.Writer) (int, error) {
	if w.err != nil {
		return 0, fmt.Errorf("encode: %w", w.err)
	}
	n, err := payloadLength(len(w.b) - frameHeaderSize)
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint32(w.b, n)
	return conn.Write(w.b)
}

// readFrame waits for the next frame and returns its payload in a pooled
// buffer (w.b), which the caller releases once it has decoded the message;
// the buffer is taken only after the header arrived, so an idle connection
// holds none. A connection closed between frames yields io.EOF, one that
// ends inside a frame io.ErrUnexpectedEOF. A positive limit bounds the whole
// frame, header included: one byte more is ErrFrameTooLarge, decided from
// the header alone.
func readFrame(br *bufio.Reader, limit int64) (*frameBuf, error) {
	hdr, err := br.Peek(frameHeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n, version := int64(binary.LittleEndian.Uint32(hdr)), hdr[4]
	if _, err := br.Discard(frameHeaderSize); err != nil {
		return nil, err
	}
	if version != protocolVersion {
		return nil, fmt.Errorf("%w %d", errProtocolVersion, version)
	}
	if size := n + frameHeaderSize; (limit > 0 && size > limit) || size > math.MaxInt {
		return nil, fmt.Errorf("%w (%d bytes, limit %d)", ErrFrameTooLarge, size, limit)
	}
	w := frameBufs.Get().(*frameBuf)
	buf := w.b[:0]
	for len(buf) < int(n) {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(int(n)-len(buf), max(len(buf), readChunk)))
		}
		m, err := io.ReadFull(br, buf[len(buf):min(int(n), cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			w.b = buf
			w.release()
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	w.b = buf
	return w, nil
}
