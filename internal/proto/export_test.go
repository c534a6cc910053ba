package proto

// ParseFrame decodes a frame produced by AppendFrame into a fresh pool-less
// frame whose Payload aliases b.
func ParseFrame(b []byte) (*Frame, error) {
	f := &Frame{}
	if err := ParseFrameInto(f, b); err != nil {
		return nil, err
	}
	return f, nil
}
