package dataset

// OpenSegmentedDecoded opens a segmented file with memory mapping off, so
// tests outside the package can read it through the decode path.
func OpenSegmentedDecoded(path string) (*SegmentFile, error) {
	mmapDisabled = true
	defer func() { mmapDisabled = false }()
	return OpenSegmented(path)
}
