// A leaf-linked binary tree kernel with many labeled accesses, so a batch
// over testdata/determinism/walk.q spreads its proof goals across several
// engine workers.  `make determinism` runs it at one and at four workers
// and demands identical DFA-cache and proof-memo contents.
struct LLBinaryTree {
	struct LLBinaryTree *L;
	struct LLBinaryTree *R;
	struct LLBinaryTree *N;
	int d;
	axioms {
		A1: forall p, p.L <> p.R;
		A2: forall p <> q, p.(L|R) <> q.(L|R);
		A3: forall p <> q, p.N <> q.N;
		A4: forall p, p.(L|R|N)+ <> p.eps;
	}
};

int walk(struct LLBinaryTree *root) {
	struct LLBinaryTree *p;
	struct LLBinaryTree *q;
	struct LLBinaryTree *r;
	p = root->L;
	q = root->R;
	r = p->N;
A:	p->d = 1;
B:	q->d = 2;
C:	r->d = 3;
	p = p->L;
D:	p->d = 4;
	q = q->R;
	q = q->N;
E:	q->d = 5;
	r = r->N;
F:	r->d = 6;
	p = root->L;
	while (p != NULL) {
G:		p->d = 7;
		p = p->N;
	}
H:	return root->d;
}
