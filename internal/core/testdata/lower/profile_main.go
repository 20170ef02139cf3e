package main

type grid struct{ v []float64 }

func (g *grid) relax() {
	//omp parallel for
	for i := 1; i < len(g.v)-1; i++ {
		g.v[i] = (g.v[i-1] + g.v[i+1]) / 2
	}
}

func helper() int { return 1 }

func main() {
	g := &grid{v: make([]float64, 8)}
	g.relax()
	//omp parallel
	{
		//omp master
		{
			_ = helper()
		}
	}
}
