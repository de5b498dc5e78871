package interp

// Test fixtures shared with the external interp_test package.
var (
	PhaseSrc        = phaseSrc
	SampleAppParams = sampleAppParams
)

// SampleSpecForTest returns the shrunk sampling spec the sampled-run tests
// use.
func SampleSpecForTest() *SampleSpec { return testSampleSpec() }
