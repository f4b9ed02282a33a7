package storage

// Test-only exports for the external tests of this directory, which
// import datagen (datagen imports storage, so they cannot be internal).
var (
	RefReadFlat  = refReadFlat
	RefWriteFlat = refWriteFlat
)
