package mt

// Alias is a Walker alias table for O(1) sampling from a fixed discrete
// distribution. The KL and KLM samplers use it to choose a homomorphic
// image index i with probability |I^i| / |S•|: the distribution is fixed
// per synopsis while the optimal estimator may draw millions of samples
// from it, so the O(n) preprocessing amortizes immediately.
type Alias struct {
	prob  []float64
	alias []int32
	pick  Bounded // uniform column choice, Intn(len(prob)) precomputed
}

// NewAlias builds an alias table from non-negative weights. Weights need
// not be normalized. It panics if weights is empty or sums to zero or the
// weights contain a negative or non-finite entry.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("mt: NewAlias with no weights")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || w != w || w > 1e308 {
			panic("mt: NewAlias weight out of range")
		}
		sum += w
	}
	if sum <= 0 {
		panic("mt: NewAlias weights sum to zero")
	}

	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int32, n),
		pick:  NewBounded(n),
	}
	// Scaled probabilities, mean 1, computed in place: an entry's scaled
	// value is final once it leaves the small stack.
	p := a.prob
	for i, w := range weights {
		p[i] = w * float64(n) / sum
	}
	// The small and large stacks share one buffer, small growing up from
	// the front and large down from the back: together they never hold
	// more than n entries. Small tables, most of a run's, keep it off the
	// heap.
	var buf [32]int32
	var stack []int32
	if n <= len(buf) {
		stack = buf[:n]
	} else {
		stack = make([]int32, n)
	}
	ns, nl := 0, 0
	push := func(i int32) {
		if p[i] < 1 {
			stack[ns] = i
			ns++
		} else {
			nl++
			stack[n-nl] = i
		}
	}
	for i := n - 1; i >= 0; i-- {
		push(int32(i))
	}
	for ns > 0 && nl > 0 {
		ns--
		l := stack[ns]
		g := stack[n-nl]
		nl--
		a.alias[l] = g
		p[g] = (p[g] + p[l]) - 1
		push(g)
	}
	// Remaining entries have probability 1 up to floating-point error.
	for _, i := range stack[n-nl:] {
		p[i] = 1
	}
	for _, i := range stack[:ns] {
		p[i] = 1
	}
	return a
}

// Len returns the number of outcomes.
func (a *Alias) Len() int { return len(a.prob) }

// Draw returns an index distributed according to the table's weights.
func (a *Alias) Draw(src *Source) int {
	i := a.pick.Draw(src)
	if src.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
