package driver

// The differentials in differential_test.go run as package driver_test,
// because they reuse internal/bugs' programs and internal/bugs imports
// this package. These names give them the in-package harness.
type Explored = explored

var (
	Explore      = explore
	ExploreGW1   = exploreGW1
	RunReference = runReference
	RunWindow    = runWindow
	RenderReport = renderReport
	SweepWindows = sweepWindows
	DriverProg   = driverProg
)
