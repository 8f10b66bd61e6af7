package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// recvPool recycles receive-side frame buffers. Distinct from framePool (the
// encode scratch pool) so bursty receive traffic cannot starve senders of
// warm buffers; the same ballooning rule applies — buffers past a frame-ish
// size are dropped rather than pinned.
var recvPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func putRecvBuf(bp *[]byte) {
	if cap(*bp) > maxPooledFrame {
		return
	}
	recvPool.Put(bp)
}

// Frame is the owned backing buffer of one message decoded by
// FrameReader.Next. The message's byte-slice fields alias it (the
// DecodeShared contract), so the receiver must keep the frame alive until
// the message — and everything still aliasing it — is done, then call
// Release exactly once to recycle the buffer. A zero Frame is a valid no-op.
type Frame struct {
	buf *[]byte
}

// Release returns the frame's buffer to the receive pool. The caller must
// not touch the message decoded from this frame (or any un-copied field of
// it) afterwards. Releasing a frame twice, or releasing two copies of the
// same Frame, corrupts the pool — release exactly once.
func (f Frame) Release() {
	if f.buf != nil {
		putRecvBuf(f.buf)
	}
}

// FrameReader parses length-prefixed wire frames from a byte stream into
// owned, pooled per-frame buffers and decodes them with decodeBodyShared.
// Unlike Reader — which reuses one receive buffer across frames and must
// therefore copy every byte field out — FrameReader gives each frame its own
// buffer, so the decoded message borrows instead of copying and the buffer
// is recycled only when the receiver calls Frame.Release. Short reads and
// fragmentation are absorbed by the buffered prefix reader and io.ReadFull.
//
// Steady state the path performs one allocation per frame: boxing the
// decoded message into the Message interface. Not safe for concurrent use.
type FrameReader struct {
	br *bufio.Reader
}

// NewFrameReader returns a framed reader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next message and the frame that owns its memory,
// blocking on the underlying reader as needed. On error the returned Frame
// is empty and needs no release. A clean EOF between frames returns io.EOF;
// EOF mid-frame returns io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (Message, Frame, error) {
	size, err := binary.ReadUvarint(fr.br)
	if err != nil {
		if err == io.EOF {
			return nil, Frame{}, io.EOF
		}
		return nil, Frame{}, fmt.Errorf("wire: frame prefix: %w", err)
	}
	if size > maxFrame {
		return nil, Frame{}, errFrameTooLarge
	}
	bp := recvPool.Get().(*[]byte)
	if cap(*bp) < int(size) {
		*bp = make([]byte, size)
	}
	body := (*bp)[:size]
	*bp = body
	if _, err := io.ReadFull(fr.br, body); err != nil {
		putRecvBuf(bp)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, Frame{}, fmt.Errorf("wire: frame body: %w", err)
	}
	m, err := decodeBodyShared(body)
	if err != nil {
		putRecvBuf(bp)
		return nil, Frame{}, err
	}
	return m, Frame{buf: bp}, nil
}
