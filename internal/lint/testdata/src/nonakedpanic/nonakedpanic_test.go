package nakedfix

// Test files are never loaded: tests may panic freely.
func panicInTest() {
	panic("test-only")
}
