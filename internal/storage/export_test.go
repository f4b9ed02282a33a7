package storage

// Test-only exports for the external tests of this directory, which
// import datagen (datagen imports storage, so they cannot be internal).
var (
	RefReadFlat   = refReadFlat
	RefWriteFlat  = refWriteFlat
	LoadDirPieces = loadDir
	FillRows      = fillRows
	NamedDef      = namedDef
	SameLayout    = sameLayout
)

// DictLayout reports whether column c is dictionary-coded.
func DictLayout(c *Column) bool { return c.dict != nil }
